// Package scilist implements an SCI-style linked-list directory
// protocol on the slotted ring, used by the paper's Table 1 to argue
// that a full-map directory dominates the linked-list organization on a
// ring. Each home keeps only a head pointer; sharers are chained
// through per-cache forward pointers. A miss is forwarded from the home
// to the head node, which supplies the data (the home supplies only
// uncached blocks), so even clean cached misses can take two
// traversals. Invalidations walk the sharing list node by node; when
// the list order conflicts with the ring direction, each hop can cost
// most of a traversal — in the worst case a block shared by n nodes
// takes n traversals to invalidate.
//
// Simplification (documented in DESIGN.md): replacement of an RS copy
// silently unlinks the node from the sharing list rather than running
// the SCI rollout handshake; rollout traffic is off the critical path
// and does not affect the traversal distributions Table 1 reports.
package scilist

import (
	// The engine reaches the caches only through its node set; importing
	// the package lets the compiler inline their state transitions.
	_ "repro/internal/cache"
	"repro/internal/coherence"
	"repro/internal/memory"
	"repro/internal/node"
	"repro/internal/ring"
	"repro/internal/sim"
)

// Engine is a linked-list directory engine over a slotted ring.
type Engine struct {
	*node.Set
	ring *ring.Ring
	dir  *memory.Directory
}

// New returns a linked-list engine over r serving the nodes n.
func New(r *ring.Ring, n *node.Set) *Engine {
	e := &Engine{Set: n, ring: r, dir: memory.NewDirectory()}
	n.Bind(e)
	return e
}

// Ring returns the underlying slotted ring.
func (e *Engine) Ring() *ring.Ring { return e.ring }

// Directory exposes the shared directory store (tests only).
func (e *Engine) Directory() *memory.Directory { return e.dir }

// fill installs a block; dirty victims write back, clean shared victims
// silently unlink from their sharing list.
func (e *Engine) fill(node int, block uint64, st coherence.State) {
	v := e.Fill(node, block, st)
	if !v.Valid {
		return
	}
	if v.Dirty {
		h := e.Home.Home(v.Block)
		land := func() {
			e.Banks[h].Access(func() { e.dir.Line(v.Block).RemoveSharer(node) })
		}
		if h == node {
			land()
		} else {
			e.ring.Send(node, h, ring.BlockSlot, nil, func(sim.Time) { land() })
		}
	} else {
		e.dir.Line(v.Block).RemoveSharer(node)
	}
}

// probe sends a point-to-point probe in the block's parity slot. A
// zero-distance hop (the home is itself the list head, or adjacent
// list members coincide) completes immediately without ring traffic.
func (e *Engine) probe(src, dst int, block uint64, arrived func(at sim.Time)) {
	if src == dst {
		arrived(e.K.Now())
		return
	}
	e.ring.Send(src, dst, e.ring.Geo.ProbeClassFor(block), nil, func(at sim.Time) { arrived(at) })
}

// sendBlock ships one block message src → dst.
func (e *Engine) sendBlock(src, dst int, delivered func(at sim.Time)) {
	e.ring.Send(src, dst, ring.BlockSlot, nil, func(at sim.Time) { delivered(at) })
}

// traversals converts a serial path length in stages into ring
// traversals, rounding partial loops up.
func (e *Engine) traversals(stages int) int {
	if stages == 0 {
		return 0
	}
	S := e.ring.Geo.TotalStages
	t := stages / S
	if stages%S != 0 {
		t++
	}
	return t
}

// Miss services a read or write miss.
func (e *Engine) Miss(node int, block uint64, write bool, done func(sim.Time, coherence.Result)) {
	h := e.Home.Home(block)
	g := &e.ring.Geo
	afterHome := func(pathToHome int) {
		e.Banks[h].Access(func() {
			ln := e.dir.Line(block)
			head := ln.Head
			wasDirty := ln.Dirty

			if head < 0 || head == node {
				// Uncached (or our own stale entry): home supplies.
				txn := coherence.ReadMissClean
				if write {
					txn = coherence.WriteMissClean
					ln.ClearSharers()
					ln.SetDirty(node)
				} else {
					ln.RemoveSharer(node)
					ln.AddSharer(node)
				}
				if h == node {
					e.fill(node, block, fillState(write))
					done(e.K.Now(), coherence.Result{Txn: txn, Local: true})
					return
				}
				e.sendBlock(h, node, func(at sim.Time) {
					e.fill(node, block, fillState(write))
					trav := e.traversals(pathToHome + g.DistStages(h, node))
					done(at, coherence.Result{Txn: txn, Traversals: trav, Class: missClass(wasDirty, trav)})
				})
				return
			}

			// Cached: the head services the request.
			txn := coherence.ReadMissClean
			if wasDirty {
				txn = coherence.ReadMissDirty
			}
			if write {
				txn = coherence.WriteMissClean
				if wasDirty {
					txn = coherence.WriteMissDirty
				}
			}
			if !write {
				// Read: requester prepends to the list; a dirty head
				// downgrades.
				ln.Dirty = false
				ln.AddSharer(node)
				e.probe(h, head, block, func(sim.Time) {
					e.Caches[head].Downgrade(block)
					e.Fetch(head, true, func() {
						e.sendBlock(head, node, func(at sim.Time) {
							e.fill(node, block, coherence.ReadShared)
							total := pathToHome + g.DistStages(h, head) + g.DistStages(head, node)
							trav := e.traversals(total)
							done(at, coherence.Result{Txn: txn, Traversals: trav, Class: missClass(wasDirty, trav)})
						})
					})
				})
				return
			}

			// Write: the head supplies data while the purge walks the
			// rest of the list; the miss commits when both are done.
			members := ln.List() // head first; excludes nobody yet
			ln.ClearSharers()
			ln.SetDirty(node)
			var dataAt, purgeAt sim.Time = -1, -1
			purgeDist := 0
			finish := func(at sim.Time) {
				if dataAt < 0 || purgeAt < 0 {
					return
				}
				e.fill(node, block, coherence.WriteExclusive)
				total := pathToHome + purgeDist + g.DistStages(members[len(members)-1], node)
				trav := e.traversals(total)
				done(at, coherence.Result{Txn: txn, Traversals: trav, Class: missClass(wasDirty, trav)})
			}
			e.probe(h, head, block, func(sim.Time) {
				e.Caches[head].Invalidate(block)
				e.Fetch(head, true, func() {
					e.sendBlock(head, node, func(at sim.Time) {
						dataAt = at
						finish(at)
					})
				})
				// Purge the remainder of the list serially.
				e.walkList(block, members, 0, func(at sim.Time) {
					purgeAt = at
					finish(at)
				})
			})
			purgeDist = g.DistStages(h, head) + listDistance(g, members)
		})
	}
	if h == node {
		afterHome(0)
		return
	}
	e.probe(node, h, block, func(sim.Time) { afterHome(g.DistStages(node, h)) })
}

// walkList invalidates members[i+1:] one probe hop at a time, starting
// from members[i]; done fires when the tail's work is complete.
func (e *Engine) walkList(block uint64, members []int, i int, doneAt func(at sim.Time)) {
	if i+1 >= len(members) {
		doneAt(e.K.Now())
		return
	}
	from, to := members[i], members[i+1]
	e.probe(from, to, block, func(sim.Time) {
		e.Caches[to].Invalidate(block)
		e.walkList(block, members, i+1, doneAt)
	})
}

// listDistance sums the downstream distances along consecutive list
// members — the serial purge path length.
func listDistance(g *ring.Geometry, members []int) int {
	d := 0
	for i := 0; i+1 < len(members); i++ {
		d += g.DistStages(members[i], members[i+1])
	}
	return d
}

func fillState(write bool) coherence.State {
	if write {
		return coherence.WriteExclusive
	}
	return coherence.ReadShared
}

func missClass(wasDirty bool, trav int) coherence.MissClass {
	switch {
	case trav <= 0:
		return coherence.LocalOrHit
	case trav == 1 && !wasDirty:
		return coherence.OneCycleClean
	case trav == 1:
		return coherence.OneCycleDirty
	default:
		return coherence.TwoCycle
	}
}

// Upgrade services an invalidation: the requester holds RS and must
// purge every other list member.
func (e *Engine) Upgrade(node int, block uint64, done func(sim.Time, coherence.Result)) {
	h := e.Home.Home(block)
	g := &e.ring.Geo
	afterHome := func(pathToHome int) {
		e.Banks[h].Access(func() {
			ln := e.dir.Line(block)
			// Other members, in list order.
			var others []int
			for _, m := range ln.List() {
				if m != node {
					others = append(others, m)
				}
			}
			ln.ClearSharers()
			ln.SetDirty(node)
			finish := func(at sim.Time, trav int) {
				if !e.Caches[node].Upgrade(block) {
					e.fill(node, block, coherence.WriteExclusive)
				}
				done(at, coherence.Result{Txn: coherence.Invalidation, Traversals: trav, Local: trav == 0})
			}
			if len(others) == 0 {
				if h == node {
					finish(e.K.Now(), 0)
					return
				}
				e.probe(h, node, block, func(at sim.Time) {
					finish(at, e.traversals(pathToHome+g.DistStages(h, node)))
				})
				return
			}
			// Serial purge: home → first member → ... → tail → ack to
			// the requester.
			chain := append([]int{h}, others...)
			dist := pathToHome + listDistance(g, chain)
			tail := others[len(others)-1]
			e.walkChainFromHome(block, chain, func(sim.Time) {
				if tail == node {
					finish(e.K.Now(), e.traversals(dist))
					return
				}
				e.probe(tail, node, block, func(at sim.Time) {
					finish(at, e.traversals(dist+g.DistStages(tail, node)))
				})
			})
		})
	}
	if h == node {
		afterHome(0)
		return
	}
	e.probe(node, h, block, func(sim.Time) { afterHome(g.DistStages(node, h)) })
}

// walkChainFromHome sends the purge probe down chain (chain[0] is the
// home, which needs no invalidation).
func (e *Engine) walkChainFromHome(block uint64, chain []int, doneAt func(at sim.Time)) {
	e.walkList(block, chain, 0, doneAt)
}
