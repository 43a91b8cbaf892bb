package core

import (
	"slices"

	"repro/internal/idspace"
	"repro/internal/runtime"
)

// This file builds the read-only JSON view the introspection server serves at
// /ring: the t-network ring with each root's s-tree summarized, plus
// system-wide totals. The returned value is a deep copy, safe to marshal from
// any goroutine afterwards.

// RefView is a peer reference in the introspection JSON.
type RefView struct {
	Addr runtime.Addr `json:"addr"`
	ID   idspace.ID   `json:"id"`
}

func refView(r Ref) *RefView {
	if !r.Valid() {
		return nil
	}
	return &RefView{Addr: r.Addr, ID: r.ID}
}

// TPeerView summarizes one live t-peer: its ring pointers, finger table, and
// the s-tree rooted at it.
type TPeerView struct {
	Addr runtime.Addr `json:"addr"`
	ID   idspace.ID   `json:"id"`

	Pred  *RefView `json:"pred,omitempty"`
	Succ  *RefView `json:"succ,omitempty"`
	Succ2 *RefView `json:"succ2,omitempty"`

	// Fingers lists the distinct valid finger targets in slot order.
	Fingers []RefView `json:"fingers,omitempty"`
	// Suspects lists neighbors this root currently suspects dead.
	Suspects []runtime.Addr `json:"suspects,omitempty"`

	// Children are the direct s-tree children; Subtree is the total number of
	// peers in this root's s-network per the latest aggregated reports.
	Children []RefView `json:"children,omitempty"`
	Subtree  int       `json:"subtree"`
	// Items is the number of data items stored at the root itself.
	Items int `json:"items"`
}

// RingView is the full introspection snapshot served at /ring.
type RingView struct {
	At runtime.Time `json:"t_us"`

	LivePeers  int `json:"live_peers"`
	LiveTPeers int `json:"live_tpeers"`
	LiveSPeers int `json:"live_speers"`
	Items      int `json:"items"`
	PendingOps int `json:"pending_ops"`

	// TreeDepthMax is the deepest live s-peer's distance to its root.
	TreeDepthMax int `json:"stree_depth_max"`

	// Ring lists the live t-peers in id order (ring order).
	Ring []TPeerView `json:"ring"`
}

// RingSummary builds the /ring snapshot from the audit's view (audit.go): its
// totals and tree depth are the ones HealthScore reports. Read-only; must run
// under the runtime's execution guarantee.
func (s *System) RingSummary() RingView {
	v := newView(s)
	c := v.census()
	rv := RingView{
		At:        s.rt.Now(),
		LivePeers: len(v.live), LiveTPeers: len(v.tps), LiveSPeers: len(v.sps),
		Items: c.items, PendingOps: c.pending, TreeDepthMax: c.depthMax,
	}
	for _, p := range v.tps {
		tv := TPeerView{
			Addr:    p.Addr,
			ID:      p.ID,
			Pred:    refView(p.Predecessor()),
			Succ:    refView(p.Successor()),
			Items:   p.data.len(),
			Subtree: p.subtreeSize(),
		}
		if t := p.t; t != nil {
			tv.Succ2 = refView(t.succ2)
			for _, f := range t.fingers.entries() {
				if f.Valid() && !slices.ContainsFunc(tv.Fingers, func(v RefView) bool { return v.Addr == f.Addr }) {
					tv.Fingers = append(tv.Fingers, RefView{Addr: f.Addr, ID: f.ID})
				}
			}
			if len(t.suspect) > 0 {
				tv.Suspects = slices.Clone(t.suspect)
				slices.Sort(tv.Suspects)
			}
		}
		for _, c := range p.children {
			tv.Children = append(tv.Children, RefView{Addr: c.Ref.Addr, ID: c.Ref.ID})
		}
		rv.Ring = append(rv.Ring, tv)
	}
	return rv
}
