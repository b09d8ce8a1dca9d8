// Package hier implements the hierarchical-ring extension the paper
// points at in its related work (Section 5): machines like Toronto's
// Hector and the Kendall Square KSR1 build large systems from a
// two-level hierarchy of unidirectional slotted rings — clusters of
// processors on fast local rings, joined by inter-ring interfaces
// (IRIs) on a global ring — with coherence maintained by hierarchical
// snooping.
//
// Requests circulate the local ring first; the IRI, which keeps a
// summary of which clusters hold copies (the role of the KSR1's
// ring directory), forwards them onto the global ring only when a
// remote cluster must participate. Cluster-local sharing therefore
// pays only the small local round trip, while inter-cluster
// transactions pay local + global + local — the trade the extension
// experiment quantifies against the paper's flat 64-node ring.
package hier

import (
	"errors"
	"fmt"

	// The engine reaches the caches only through its node set; importing
	// the package lets the compiler inline their state transitions.
	_ "repro/internal/cache"
	"repro/internal/coherence"
	"repro/internal/node"
	"repro/internal/ring"
	"repro/internal/sim"
)

// Options configures a hierarchical engine.
type Options struct {
	// Clusters is the number of local rings; the node count must be an
	// exact multiple.
	Clusters int
	// Ring is the physical configuration shared by the local rings and
	// the global ring (clock, width, block size, slot mix).
	Ring ring.Config
}

// hmeta is the home-side and IRI-summary state of one block.
type hmeta struct {
	dirty  bool
	owner  int
	copies []int // cached copies per cluster (the IRIs' summary)
}

// Engine is a hierarchical snooping coherence engine.
type Engine struct {
	*node.Set
	clusters int
	perClus  int
	global   *ring.Ring
	locals   []*ring.Ring
	meta     map[uint64]*hmeta

	// Txns counts coherence transactions (misses and upgrades);
	// GlobalTxns the subset that crossed the global ring. Both span the
	// whole run.
	Txns       uint64
	GlobalTxns uint64
}

// CheckClusters reports whether nodes processors split into clusters
// local rings: at least two, each with the same node count.
func CheckClusters(nodes, clusters int) error {
	if clusters <= 1 {
		return errors.New("hier: need at least two clusters")
	}
	if nodes%clusters != 0 {
		return fmt.Errorf("hier: %d nodes not divisible into %d clusters", nodes, clusters)
	}
	return nil
}

// New returns a hierarchical engine serving the nodes n in
// opts.Clusters clusters.
func New(n *node.Set, opts Options) *Engine {
	nodes := len(n.Caches)
	if err := CheckClusters(nodes, opts.Clusters); err != nil {
		panic(err)
	}
	per := nodes / opts.Clusters
	e := &Engine{
		Set:      n,
		clusters: opts.Clusters,
		perClus:  per,
		meta:     make(map[uint64]*hmeta),
	}
	gc := opts.Ring
	gc.Nodes = opts.Clusters
	e.global = ring.New(n.K, gc)
	e.locals = make([]*ring.Ring, opts.Clusters)
	for c := range e.locals {
		lc := opts.Ring
		lc.Nodes = per + 1 // the extra interface is the IRI
		e.locals[c] = ring.New(n.K, lc)
	}
	n.Bind(e)
	return e
}

// cluster returns node n's cluster; local its position on that ring.
func (e *Engine) cluster(n int) int { return n / e.perClus }
func (e *Engine) local(n int) int   { return n % e.perClus }

// iri is the IRI's interface position on every local ring.
func (e *Engine) iri() int { return e.perClus }

// Clusters returns the cluster count.
func (e *Engine) Clusters() int { return e.clusters }

// GlobalRing returns the inter-cluster ring.
func (e *Engine) GlobalRing() *ring.Ring { return e.global }

// LocalRing returns cluster c's ring.
func (e *Engine) LocalRing(c int) *ring.Ring { return e.locals[c] }

// NetworkUtilization reports the slot utilization averaged over every
// ring (local rings and global), weighted by slot count.
func (e *Engine) NetworkUtilization() float64 {
	var num, den float64
	add := func(r *ring.Ring) {
		n := float64(r.Geo.NumSlots())
		num += r.OverallUtilization() * n
		den += n
	}
	add(e.global)
	for _, r := range e.locals {
		add(r)
	}
	if den == 0 {
		return 0
	}
	return num / den
}

// ResetNetStats restarts every ring's statistics window.
func (e *Engine) ResetNetStats() {
	e.global.ResetStats()
	for _, r := range e.locals {
		r.ResetStats()
	}
}

// GlobalShare reports the fraction of coherence transactions that
// crossed the global ring, over the whole run.
func (e *Engine) GlobalShare() float64 {
	if e.Txns == 0 {
		return 0
	}
	return float64(e.GlobalTxns) / float64(e.Txns)
}

func (e *Engine) metaFor(block uint64) *hmeta {
	m := e.meta[block]
	if m == nil {
		m = &hmeta{owner: -1, copies: make([]int, e.clusters)}
		e.meta[block] = m
	}
	return m
}

// remoteCopies reports whether any cluster other than c holds a copy.
func (m *hmeta) remoteCopies(c int) bool {
	for i, n := range m.copies {
		if i != c && n > 0 {
			return true
		}
	}
	return false
}

// invalidate drops node's copy and maintains the cluster summary.
func (e *Engine) invalidate(node int, block uint64) {
	if e.Caches[node].Invalidate(block) != coherence.Invalid {
		m := e.metaFor(block)
		if c := e.cluster(node); m.copies[c] > 0 {
			m.copies[c]--
		}
	}
}

// fill installs a block, maintaining the summary and writing back any
// dirty victim.
func (e *Engine) fill(node int, block uint64, st coherence.State) {
	v := e.Fill(node, block, st)
	e.metaFor(block).copies[e.cluster(node)]++
	if !v.Valid {
		return
	}
	vm := e.metaFor(v.Block)
	if c := e.cluster(node); vm.copies[c] > 0 {
		vm.copies[c]--
	}
	if v.Dirty {
		e.writeBack(node, v.Block)
	}
}

// writeBack returns a dirty block to its home, off the critical path.
func (e *Engine) writeBack(node int, block uint64) {
	h := e.Home.Home(block)
	land := func(sim.Time) {
		m := e.metaFor(block)
		if m.dirty && m.owner == node {
			m.dirty = false
		}
		e.Banks[h].Access(nil)
	}
	if h == node {
		land(e.K.Now())
		return
	}
	e.sendBlockPath(node, h, land)
}

// sendProbePath routes a point-to-point probe from node a to node b
// through up to three ring legs (local → global → local).
func (e *Engine) sendProbePath(a, b int, block uint64, arrived func(at sim.Time)) {
	ca, cb := e.cluster(a), e.cluster(b)
	class := e.locals[ca].Geo.ProbeClassFor(block)
	if ca == cb {
		e.locals[ca].Send(e.local(a), e.local(b), class, nil, func(at sim.Time) { arrived(at) })
		return
	}
	e.locals[ca].Send(e.local(a), e.iri(), class, nil, func(sim.Time) {
		e.global.Send(ca, cb, class, nil, func(sim.Time) {
			e.locals[cb].Send(e.iri(), e.local(b), class, nil, func(at sim.Time) { arrived(at) })
		})
	})
}

// sendBlockPath routes a block message likewise.
func (e *Engine) sendBlockPath(a, b int, delivered func(at sim.Time)) {
	ca, cb := e.cluster(a), e.cluster(b)
	if ca == cb {
		e.locals[ca].Send(e.local(a), e.local(b), ring.BlockSlot, nil, func(at sim.Time) { delivered(at) })
		return
	}
	e.locals[ca].Send(e.local(a), e.iri(), ring.BlockSlot, nil, func(sim.Time) {
		e.global.Send(ca, cb, ring.BlockSlot, nil, func(sim.Time) {
			e.locals[cb].Send(e.iri(), e.local(b), ring.BlockSlot, nil, func(at sim.Time) { delivered(at) })
		})
	})
}

// DebugGlobal, when non-nil, observes each miss's routing decision.
// Test-only instrumentation.
var DebugGlobal func(block uint64, global, remoteResponder, dirty, write bool)

// Miss services a read or write miss.
func (e *Engine) Miss(node int, block uint64, write bool, done func(sim.Time, coherence.Result)) {
	m := e.metaFor(block)
	h := e.Home.Home(block)
	cn := e.cluster(node)
	dirtyRemote := m.dirty && m.owner != node

	// Pure local: clean block homed here, and (for writes) no copies
	// anywhere else per the IRI summary.
	soleCopies := !m.remoteCopies(cn) && m.copies[cn] == 0
	if h == node && !dirtyRemote && (!write || soleCopies) {
		e.Banks[h].Access(func() {
			st := coherence.ReadShared
			if write {
				st = coherence.WriteExclusive
				m.dirty = true
				m.owner = node
			}
			e.fill(node, block, st)
			txn := coherence.ReadMissClean
			if write {
				txn = coherence.WriteMissClean
			}
			done(e.K.Now(), coherence.Result{Txn: txn, Local: true})
		})
		return
	}

	responder := h
	if dirtyRemote {
		responder = m.owner
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

	needGlobal := e.cluster(responder) != cn || (write && m.remoteCopies(cn))
	trav := 1
	e.Txns++
	if needGlobal {
		trav = 2
		e.GlobalTxns++
	}
	if DebugGlobal != nil {
		DebugGlobal(block, needGlobal, e.cluster(responder) != cn, dirtyRemote, write)
	}

	// Join: data arrival plus (for writes) every invalidation sweep.
	j := newJoin(func(at sim.Time) {
		st := coherence.ReadShared
		if write {
			st = coherence.WriteExclusive
			m.dirty = true
			m.owner = node
		} else if dirtyRemote {
			m.dirty = false
		}
		e.fill(node, block, st)
		done(at, coherence.Result{Txn: txn, Traversals: trav})
	})

	if write {
		e.sweeps(node, block, m, j)
	}

	// Data path.
	j.add()
	if responder == node {
		// Write miss on a clean block homed here with remote copies:
		// the data is local, the sweeps do the rest.
		e.Banks[node].Access(func() { j.arrive(e.K.Now()) })
	} else {
		e.sendProbePath(node, responder, block, func(sim.Time) {
			if dirtyRemote {
				if write {
					e.invalidate(responder, block)
				} else {
					e.Caches[responder].Downgrade(block)
				}
			}
			e.Fetch(responder, dirtyRemote, func() {
				e.sendBlockPath(responder, node, func(at sim.Time) { j.arrive(at) })
			})
		})
	}
	j.seal()
}

// sweeps launches the invalidation sweeps a write needs: a broadcast on
// the requester's local ring, and — when the IRI summary shows copies
// elsewhere — a global broadcast that injects a sweep into every
// cluster holding copies.
func (e *Engine) sweeps(node int, block uint64, m *hmeta, j *join) {
	cn := e.cluster(node)
	class := e.locals[cn].Geo.ProbeClassFor(block)

	// Local sweep from the requester.
	j.add()
	e.locals[cn].Send(e.local(node), ring.Broadcast, class,
		func(visited int, _ sim.Time) {
			if visited < e.perClus { // skip the IRI position
				e.invalidate(cn*e.perClus+visited, block)
			}
		},
		func(at sim.Time) { j.arrive(at) })

	if !m.remoteCopies(cn) {
		return
	}
	// Global sweep: the IRI forwards the invalidation around the global
	// ring; each IRI whose cluster holds copies injects a local sweep.
	j.add()
	e.locals[cn].Send(e.local(node), e.iri(), class, nil, func(sim.Time) {
		e.global.Send(cn, ring.Broadcast, class,
			func(cluster int, _ sim.Time) {
				if m.copies[cluster] == 0 {
					return
				}
				j.add()
				e.locals[cluster].Send(e.iri(), ring.Broadcast, class,
					func(visited int, _ sim.Time) {
						if visited < e.perClus {
							e.invalidate(cluster*e.perClus+visited, block)
						}
					},
					func(at sim.Time) { j.arrive(at) })
			},
			func(at sim.Time) { j.arrive(at) })
	})
}

// Upgrade services an invalidation request.
func (e *Engine) Upgrade(node int, block uint64, done func(sim.Time, coherence.Result)) {
	m := e.metaFor(block)
	cn := e.cluster(node)
	needGlobal := m.remoteCopies(cn)
	trav := 1
	e.Txns++
	if needGlobal {
		trav = 2
		e.GlobalTxns++
	}
	j := newJoin(func(at sim.Time) {
		if !e.Caches[node].Upgrade(block) {
			e.fill(node, block, coherence.WriteExclusive)
		}
		m.dirty = true
		m.owner = node
		done(at, coherence.Result{Txn: coherence.Invalidation, Traversals: trav})
	})
	e.sweeps(node, block, m, j)
	j.seal()
}

// join runs a completion callback once every registered event has
// arrived; seal marks registration complete.
type join struct {
	pending int
	sealed  bool
	fired   bool
	latest  sim.Time
	then    func(at sim.Time)
}

func newJoin(then func(at sim.Time)) *join { return &join{then: then} }

func (j *join) add() { j.pending++ }

func (j *join) arrive(at sim.Time) {
	if at > j.latest {
		j.latest = at
	}
	j.pending--
	j.maybeFire()
}

func (j *join) seal() {
	j.sealed = true
	j.maybeFire()
}

func (j *join) maybeFire() {
	if j.sealed && j.pending == 0 && !j.fired {
		j.fired = true
		j.then(j.latest)
	}
}
