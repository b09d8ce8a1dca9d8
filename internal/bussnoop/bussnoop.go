// Package bussnoop implements the baseline of Section 4.3: a 3-state
// write-invalidate snooping protocol on a pipelined split-transaction
// bus (FutureBus+-like), with the physical shared memory partitioned
// among the processing nodes exactly as in the ring systems. The
// address tenure of every miss and invalidation is broadcast and
// snooped by all caches; the data returns in a separate response
// tenure, for the paper's minimum of six bus cycles per remote miss
// plus arbitration and the 140 ns memory access.
package bussnoop

import (
	"repro/internal/bus"
	// The engine reaches the caches only through its node set; importing
	// the package lets the compiler inline their state transitions.
	_ "repro/internal/cache"
	"repro/internal/coherence"
	"repro/internal/memory"
	"repro/internal/node"
	"repro/internal/sim"
)

// Engine is a snooping coherence engine over a split-transaction bus.
type Engine struct {
	*node.Set
	bus  *bus.Bus
	meta memory.DirtyBits
}

// New returns a bus snooping engine over b serving the nodes n.
func New(b *bus.Bus, n *node.Set) *Engine {
	e := &Engine{Set: n, bus: b, meta: make(memory.DirtyBits)}
	n.Bind(e)
	return e
}

// Bus returns the underlying split-transaction bus.
func (e *Engine) Bus() *bus.Bus { return e.bus }

// fill installs a block, transferring any dirty victim home.
func (e *Engine) fill(node int, block uint64, st coherence.State) {
	if v := e.Fill(node, block, st); v.Valid && v.Dirty {
		e.writeBack(node, v.Block)
	}
}

// writeBack moves a dirty block home, off the critical path.
func (e *Engine) writeBack(node int, block uint64) {
	h := e.Home.Home(block)
	land := func(sim.Time) {
		m := e.meta.Of(block)
		if m.Dirty && m.Owner == node {
			m.Dirty = false
		}
		e.Banks[h].Access(nil)
	}
	if h == node {
		land(e.K.Now())
		return
	}
	e.bus.Transact(node, bus.WriteBack, nil, land)
}

// Miss services a read or write miss.
func (e *Engine) Miss(node int, block uint64, write bool, done func(sim.Time, coherence.Result)) {
	m := e.meta.Of(block)
	h := e.Home.Home(block)
	dirtyRemote := m.Dirty && m.Owner != node

	// A read miss on a clean block homed here never touches the bus.
	if h == node && !dirtyRemote && !write {
		e.Banks[h].Access(func() {
			e.fill(node, block, coherence.ReadShared)
			done(e.K.Now(), coherence.Result{Txn: coherence.ReadMissClean, Local: true})
		})
		return
	}

	txn := coherence.ReadMissClean
	switch {
	case write && dirtyRemote:
		txn = coherence.WriteMissDirty
	case write:
		txn = coherence.WriteMissClean
	case dirtyRemote:
		txn = coherence.ReadMissDirty
	}
	responder := h
	if dirtyRemote {
		responder = m.Owner
	}

	// Address tenure: broadcast and snooped.
	e.bus.Transact(node, bus.Request,
		func(snooper int, _ sim.Time) {
			if write {
				e.Caches[snooper].Invalidate(block)
			} else if snooper == responder && dirtyRemote {
				e.Caches[snooper].Downgrade(block)
			}
		},
		func(sim.Time) {
			// Fetch at the responder, then the data tenure.
			deliver := func() {
				e.bus.Transact(responder, bus.Response, nil, func(at sim.Time) {
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
						mm.Dirty = false
					}
					done(at, coherence.Result{Txn: txn})
				})
			}
			e.Fetch(responder, dirtyRemote, deliver)
		})
}

// Upgrade services an invalidation: the address tenure alone grants
// write permission once every snooper has seen it.
func (e *Engine) Upgrade(node int, block uint64, done func(sim.Time, coherence.Result)) {
	e.bus.Transact(node, bus.Request,
		func(snooper int, _ sim.Time) {
			e.Caches[snooper].Invalidate(block)
		},
		func(at sim.Time) {
			if !e.Caches[node].Upgrade(block) {
				e.fill(node, block, coherence.WriteExclusive)
			}
			m := e.meta.Of(block)
			m.Dirty = true
			m.Owner = node
			done(at, coherence.Result{Txn: coherence.Invalidation})
		})
}
