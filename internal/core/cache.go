package core

// The caching scheme the paper's conclusion sketches as future work: "in the
// case that some extremely popular data are requested by a large amount of
// peers, the peer hosting the data may be overwhelmed ... The idea is to
// distribute the load among as many peers as possible so that no peer is
// overwhelmed."
//
// The three open questions the paper lists are answered as follows:
//   - which surrogates: random tree neighbors of the overloaded holder, so
//     a flood reaching the neighborhood hits a copy before the holder;
//   - which data: any item served more than cacheHotThreshold times within
//     one cacheWindow;
//   - how long: cacheTTL of idleness, refreshed whenever the copy serves
//     (an idleTable keyed by data id).

import (
	"repro/internal/idspace"
	"repro/internal/obs"
	"repro/internal/runtime"
)

// cacheFanout tree neighbors receive a copy of a hot item. The values are
// ExtCaching's; none is swept.
const (
	cacheFanout       = 2
	cacheHotThreshold = 8
	cacheWindow       = 60 * runtime.Second
	cacheTTL          = 600 * runtime.Second
)

// serveStat tracks per-item serve counts inside the current hot window.
type serveStat struct {
	count       int
	windowStart runtime.Time
}

// cacheAdd pushes a surrogate copy to a neighbor.
type cacheAdd struct {
	Item Item
}

// lookupCached consults the surrogate cache, refreshing the hit's expiry.
func (p *Peer) lookupCached(did idspace.ID) (Item, bool) {
	if !p.sys.Cfg.Caching || p.enh == nil {
		return Item{}, false
	}
	it, ok := p.enh.cache.get(did)
	if ok {
		p.sys.stats.CacheHits++
	}
	return it, ok
}

// findLocal checks the database and then the cache.
func (p *Peer) findLocal(did idspace.ID) (Item, bool) {
	if it, ok := p.data.get(did); ok {
		return it, true
	}
	return p.lookupCached(did)
}

// recordServe counts a successful answer for an item and, once the item
// turns hot within the window, pushes surrogate copies out.
func (p *Peer) recordServe(it Item) {
	if !p.sys.Cfg.Caching {
		return
	}
	e := p.enhance()
	if e.serves == nil {
		e.serves = make(map[idspace.ID]*serveStat)
	}
	now := p.sys.rt.Now()
	st, ok := e.serves[it.DID]
	if !ok || now-st.windowStart > cacheWindow {
		st = &serveStat{windowStart: now}
		e.serves[it.DID] = st
	}
	st.count++
	if st.count == cacheHotThreshold {
		st.count = 0
		st.windowStart = now
		p.pushSurrogates(it)
	}
}

// pushSurrogates copies a hot item to random tree neighbors.
func (p *Peer) pushSurrogates(it Item) {
	nbs := p.neighbors()
	if len(nbs) == 0 {
		return
	}
	rng := p.sys.rt.Rand()
	fanout := cacheFanout
	if fanout > len(nbs) {
		fanout = len(nbs)
	}
	for _, idx := range rng.Perm(len(nbs))[:fanout] {
		p.sendData(nbs[idx].Addr, 1, cacheAdd{Item: it})
		p.sys.stats.CachePushes++
	}
}

// handleCacheAdd installs a surrogate copy. Peers that already hold the item
// in their database ignore the push.
func (p *Peer) handleCacheAdd(m cacheAdd) {
	if p.data.has(m.Item.DID) {
		return
	}
	p.enhance().cache.put(p.sys.rt, cacheTTL, m.Item.DID, m.Item)
}

// NumCached returns the number of surrogate copies this peer holds.
func (p *Peer) NumCached() int {
	if p.enh == nil {
		return 0
	}
	return len(p.enh.cache)
}

// dropCached removes a surrogate copy, if held.
func (p *Peer) dropCached(did idspace.ID) {
	if p.enh != nil {
		p.enh.cache.drop(did)
	}
}

// ServeCount reports how many times this peer answered lookups (database or
// cache) since creation; the caching experiment uses it to measure load
// concentration.
func (p *Peer) ServeCount() uint64 { return p.served }

// answer sends the item to a lookup origin and does the serve bookkeeping
// shared by every hit path (flood, routed lookup, walk, fetch).
func (p *Peer) answer(origin Ref, qid uint64, it Item, hops int) {
	p.served++
	p.sys.trace(obs.EvLookupHit, qid, p.Addr, origin.Addr, hops, "")
	p.send(origin.Addr, foundMsg{QID: qid, Item: it, Holder: p.Ref(), HolderSegLo: p.segLo, Hops: hops})
	p.recordServe(it)
}
