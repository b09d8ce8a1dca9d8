// Package snoop implements the paper's snooping cache coherence
// protocol for the unidirectional slotted ring (Section 3.1): a
// write-invalidate write-back protocol in which miss and invalidation
// requests are broadcast in probe slots, snooped by every interface as
// they pass, and acknowledged by the owner — the home memory when the
// block's dirty bit is clear, the dirty cache otherwise. Probes are
// removed only by their requester, so no transaction traverses the
// ring more than once and miss latency is independent of node
// positions: the ring behaves as a UMA interconnect.
//
// Timing simplifications, noted in DESIGN.md: the block supplied by a
// dirty owner is assumed to update memory without an extra message
// (home reflection), and responder selection is made at probe insertion
// time — consistent with the paper's own model, which never charges
// extra traffic for reflection.
package snoop

import (
	// The engine reaches the caches only through its node set; importing
	// the package lets the compiler inline their state transitions.
	_ "repro/internal/cache"
	"repro/internal/coherence"
	"repro/internal/memory"
	"repro/internal/node"
	"repro/internal/obs"
	"repro/internal/ring"
	"repro/internal/sim"
)

// Engine is a snooping-protocol coherence engine over a slotted ring.
type Engine struct {
	*node.Set
	ring *ring.Ring
	meta memory.DirtyBits
	tr   *obs.Tracer
}

// New returns a snooping engine over r serving the nodes n. tr, when
// non-nil, records coherence transactions as obs spans with phase
// annotations.
func New(r *ring.Ring, n *node.Set, tr *obs.Tracer) *Engine {
	e := &Engine{Set: n, ring: r, meta: make(memory.DirtyBits), tr: tr}
	n.Bind(e)
	return e
}

// Ring returns the underlying slotted ring (for utilization stats).
func (e *Engine) Ring() *ring.Ring { return e.ring }

// fill installs a block, sending a write-back for any dirty victim.
func (e *Engine) fill(node int, block uint64, st coherence.State) {
	if v := e.Fill(node, block, st); v.Valid && v.Dirty {
		e.writeBack(node, v.Block)
	}
}

// writeBack returns a dirty block to its home memory, off the critical
// path. The home clears the dirty bit when the block message arrives.
func (e *Engine) writeBack(node int, block uint64) {
	sp := e.tr.Begin(node, e.K.Now())
	m := e.meta.Of(block)
	h := e.Home.Home(block)
	if h == node {
		// Local write-back: just the bank write.
		m.Dirty = false
		e.Banks[h].Access(nil)
		sp.End(e.K.Now(), coherence.WriteBack)
		return
	}
	grab, removal := e.ring.Send(node, h, ring.BlockSlot, nil, func(sim.Time) {
		mm := e.meta.Of(block)
		if mm.Dirty && mm.Owner == node {
			mm.Dirty = false
		}
		e.Banks[h].Access(nil)
	})
	sp.Mark(obs.PhaseData, grab)
	sp.End(removal, coherence.WriteBack)
}

// Miss services a read or write miss.
func (e *Engine) Miss(node int, block uint64, write bool, done func(sim.Time, coherence.Result)) {
	m := e.meta.Of(block)
	h := e.Home.Home(block)
	start := e.K.Now()
	sp := e.tr.Begin(node, start)

	// Clean block homed here (or our own stale ownership racing with a
	// write-back): served from the local bank. A write to a block that
	// other caches may share still needs the invalidating probe, so
	// only reads take the pure-local path.
	dirtyRemote := m.Dirty && m.Owner != node
	if h == node && !dirtyRemote && !write {
		e.Banks[h].Access(func() {
			e.fill(node, block, coherence.ReadShared)
			sp.Mark(obs.PhaseData, e.K.Now())
			sp.End(e.K.Now(), coherence.ReadMissClean)
			done(e.K.Now(), coherence.Result{Txn: coherence.ReadMissClean, Local: true})
		})
		return
	}

	txn := coherence.ReadMissClean
	if write {
		txn = coherence.WriteMissClean
		if dirtyRemote {
			txn = coherence.WriteMissDirty
		}
	} else if dirtyRemote {
		txn = coherence.ReadMissDirty
	}

	// Responder chosen at insertion: the dirty owner, else the home.
	responder := h
	if dirtyRemote {
		responder = m.Owner
	}

	// Broadcast the probe. Every interface snoops it as it passes:
	// a write probe invalidates all copies, a read probe downgrades
	// the dirty owner.
	var probeReturn sim.Time
	blockArrived := sim.Time(-1)
	finished := false
	finish := func() {
		if finished {
			return
		}
		// A write completes when every copy is invalidated (probe back
		// around) and the data has arrived; a read when data arrives.
		if blockArrived < 0 {
			return
		}
		if write && e.K.Now() < probeReturn {
			return
		}
		finished = true
		st := coherence.ReadShared
		if write {
			st = coherence.WriteExclusive
		}
		e.fill(node, block, st)
		mm := e.meta.Of(block)
		if write {
			mm.Dirty = true
			mm.Owner = node
		} else if dirtyRemote {
			// The owner downgraded and the home copy is refreshed.
			mm.Dirty = false
		}
		sp.End(e.K.Now(), txn)
		done(e.K.Now(), coherence.Result{Txn: txn, Traversals: 1})
	}

	class := e.ring.Geo.ProbeClassFor(block)
	supplied := false
	grab, ret := e.ring.Send(node, ring.Broadcast, class,
		func(visited int, at sim.Time) {
			// Snooper actions at probe pass time.
			if write {
				e.Caches[visited].Invalidate(block)
			} else if visited == responder && dirtyRemote {
				e.Caches[visited].Downgrade(block)
			}
			if visited == responder && !supplied {
				supplied = true
				e.respond(responder, node, dirtyRemote, func() {
					blockArrived = e.K.Now()
					sp.Mark(obs.PhaseData, blockArrived)
					finish()
				})
			}
		},
		func(at sim.Time) {
			// Probe removed by the requester after one traversal.
			sp.Mark(obs.PhaseAck, at)
			finish()
		})
	probeReturn = ret
	sp.Mark(obs.PhaseProbeGrab, grab)

	// A write miss on a clean block homed at the requester: the probe
	// still sweeps the ring to invalidate sharers, but the data comes
	// from the local bank, in parallel.
	if responder == node {
		supplied = true
		e.Banks[node].Access(func() {
			blockArrived = e.K.Now()
			sp.Mark(obs.PhaseData, blockArrived)
			finish()
		})
	}
}

// respond fetches the block at the responder (memory bank when it is
// the clean home, cache when it is the dirty owner) and ships it to the
// requester in a block slot.
func (e *Engine) respond(responder, requester int, fromCache bool, delivered func()) {
	send := func() {
		e.ring.Send(responder, requester, ring.BlockSlot, nil, func(sim.Time) {
			delivered()
		})
	}
	e.Fetch(responder, fromCache, send)
}

// Upgrade services an invalidation request: the requester holds an RS
// copy and broadcasts a probe; every other copy is invalidated as the
// probe sweeps, and the write permission is granted when the probe
// returns — exactly one traversal.
func (e *Engine) Upgrade(node int, block uint64, done func(sim.Time, coherence.Result)) {
	class := e.ring.Geo.ProbeClassFor(block)
	sp := e.tr.Begin(node, e.K.Now())
	grab, _ := e.ring.Send(node, ring.Broadcast, class,
		func(visited int, at sim.Time) {
			e.Caches[visited].Invalidate(block)
		},
		func(at sim.Time) {
			// Our copy may have been invalidated by a racing write; the
			// transaction then degenerates into a write miss fill.
			if !e.Caches[node].Upgrade(block) {
				e.fill(node, block, coherence.WriteExclusive)
			}
			m := e.meta.Of(block)
			m.Dirty = true
			m.Owner = node
			sp.Mark(obs.PhaseAck, at)
			sp.End(at, coherence.Invalidation)
			done(at, coherence.Result{Txn: coherence.Invalidation, Traversals: 1})
		})
	sp.Mark(obs.PhaseProbeGrab, grab)
}
