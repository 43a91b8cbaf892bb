package core

import (
	"fmt"

	"repro/internal/runtime"
)

// PopulationOpts configures BuildPopulation.
type PopulationOpts struct {
	// N is how many peers to create.
	N int
	// Capacities optionally assigns per-peer link capacities (index i for
	// the i-th created peer); missing entries default to 1.
	Capacities []float64
	// Hosts optionally pins peers to physical hosts; missing entries are
	// drawn uniformly from the topology's stub nodes.
	Hosts []int
	// ForceRole pins every peer's role instead of letting the server
	// decide (used to build the ring before populating s-networks).
	ForceRole *Role
}

// BuildPopulation joins N peers one at a time, driving the engine until each
// join completes, and returns the peers with their join statistics. Joining
// sequentially keeps runs deterministic; concurrent joins are exercised
// separately by the tests.
func (s *System) BuildPopulation(o PopulationOpts) ([]*Peer, []JoinStats, error) {
	var stubs []int
	if pl := s.rt.Placement(); pl != nil {
		stubs = pl.StubHosts()
	}
	if len(stubs) == 0 {
		// Placement-free runtimes host every peer on host 0.
		stubs = []int{0}
	}
	peers := make([]*Peer, 0, o.N)
	stats := make([]JoinStats, 0, o.N)
	for i := 0; i < o.N; i++ {
		opts := JoinOpts{Capacity: 1, ForceRole: o.ForceRole}
		if i < len(o.Capacities) {
			opts.Capacity = o.Capacities[i]
		}
		if i < len(o.Hosts) {
			opts.Host = o.Hosts[i]
		} else {
			s.rt.Do(func() { opts.Host = stubs[s.rt.Rand().Intn(len(stubs))] })
		}
		p, js, err := s.JoinSync(opts)
		if err != nil {
			return peers, stats, fmt.Errorf("core: peer %d of %d: %w", i, o.N, err)
		}
		peers = append(peers, p)
		stats = append(stats, js)
	}
	return peers, stats, nil
}

// JoinSync joins one peer and drives the engine until the join completes.
func (s *System) JoinSync(opts JoinOpts) (*Peer, JoinStats, error) {
	var (
		done  bool
		stats JoinStats
	)
	var p *Peer
	s.rt.Do(func() {
		p = s.Join(opts, func(_ *Peer, js JoinStats) {
			done = true
			stats = js
		})
	})
	if err := s.rt.Await(func() bool { return done }); err != nil {
		return p, stats, fmt.Errorf("join of peer %d: %w", p.Addr, err)
	}
	return p, stats, nil
}

// StoreSync stores a key and drives the engine until the operation resolves.
func (s *System) StoreSync(p *Peer, key, value string) (OpResult, error) {
	return s.runOp(func(done func(OpResult)) { p.Store(key, value, done) })
}

// LookupSync looks up a key and drives the engine until the operation
// resolves (success, definitive miss, or timeout).
func (s *System) LookupSync(p *Peer, key string) (OpResult, error) {
	return s.runOp(func(done func(OpResult)) { p.Lookup(key, done) })
}

// DeleteSync deletes a key and drives the engine until the operation
// resolves. A successful result with an empty Value means the key did not
// exist at its owner.
func (s *System) DeleteSync(p *Peer, key string) (OpResult, error) {
	return s.runOp(func(done func(OpResult)) { p.Delete(key, done) })
}

// runOp drives the engine until the issued operation completes. Every
// operation carries a timeout, so completion is guaranteed while the engine
// has events.
func (s *System) runOp(issue func(done func(OpResult))) (OpResult, error) {
	var (
		finished bool
		result   OpResult
	)
	s.rt.Do(func() {
		issue(func(r OpResult) {
			finished = true
			result = r
		})
	})
	if err := s.rt.Await(func() bool { return finished }); err != nil {
		return result, fmt.Errorf("core: operation: %w", err)
	}
	return result, nil
}

// Settle advances time by d, letting periodic maintenance (HELLO rounds,
// finger refresh, watchdogs) run.
func (s *System) Settle(d runtime.Time) {
	s.rt.Sleep(d)
}
