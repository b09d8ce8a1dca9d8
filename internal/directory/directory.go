// Package directory implements the paper's full-map directory-based
// protocol for the slotted ring (Section 3.2). Coherence requests are
// point-to-point probes sent to the block's home node, which holds one
// presence bit per node and a dirty bit per block. Clean remote misses
// take exactly one ring traversal (requester → home → requester); when
// the home is not the owner the request is forwarded to the dirty node,
// which costs a second traversal unless the dirty node happens to lie
// on the home → requester arc; write misses and invalidations that find
// the block cached elsewhere make the home multicast an invalidation
// around the ring and await its return before responding — one extra
// traversal. These three latency classes are the paper's Figure 5
// breakdown, and the traversal counts its Table 1.
//
// The home's memory bank serializes all directory processing for its
// blocks (lookup and data fetch are one 140 ns access), which models
// directory contention at the home.
//
// The protocol flows are written once, as handlers of ring.Payload
// messages, over one Interconnect interface: the classic slotted ring
// (*ring.Ring) or the segments of the segmented ring (*ring.SegRing).
// A message that crosses a shard boundary cannot carry a closure, so
// every remote interaction travels as a packet that the receiving
// node's engine interprets against its own node-ranged state:
//
//	pkReq          requester → home    read/write miss request (probe)
//	pkUpReq        requester → home    upgrade request (probe)
//	pkOwnerReq     home/req → owner    forward to the dirty owner (probe)
//	pkData         supplier → req      block data response (block slot)
//	pkAck          home → requester    upgrade acknowledgement (probe)
//	pkWB           node → home         dirty-eviction write-back (block)
//	pkInvalFill    broadcast from req  local write miss, shared elsewhere
//	pkInvalLocal   broadcast from req  local upgrade sweep
//	pkInvalSend    broadcast from home remote write miss sweep, then data
//	pkInvalAck     broadcast from home remote upgrade sweep, then ack
//
// Every response echoes the transaction's classification (transaction
// kind, latency class, traversal count), computed where the directory
// decision is made, so the requester keeps only a pending record per
// outstanding request: its completion callback and its obs span.
//
// State partitioning makes this shardable: directory lines are touched
// only at the block's home (inside the home bank's serialized access),
// caches and banks only at their own node, and each of those nodes
// belongs to exactly one engine. The one exception is tracing, whose
// home-side marks land on the requester's span; it runs only with a
// single engine over the classic ring.
//
// Over the classic ring a point-to-point message claims one calendar
// entry (its delivery) and a broadcast one per visited node plus its
// return, and the engine makes its sends, bank accesses and cache
// supply delays in a fixed order per flow. Kernel sequence numbers are
// therefore consumed identically run after run, and result artifacts
// are stable.
package directory

import (
	"fmt"

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

// Interconnect is a transport the engine sends its messages over: the
// classic slotted ring, or one segment of the segmented ring. It
// reports the messages it carries to its Client.
type Interconnect interface {
	Geometry() *ring.Geometry
	SetClient(c ring.Client)
	SendPayload(src, dst int, class ring.SlotClass, p ring.Payload) sim.Time
}

var (
	_ Interconnect = (*ring.Ring)(nil)
	_ Interconnect = (*ring.SegRing)(nil)
)

// Message kinds, carried in ring.Payload.Kind.
const (
	pkReq uint8 = iota
	pkUpReq
	pkOwnerReq
	pkData
	pkAck
	pkWB
	pkInvalFill
	pkInvalLocal
	pkInvalSend
	pkInvalAck
)

// flagWrite marks the request as a write in ring.Payload.Flags.
const flagWrite = 1

func writeFlag(write bool) uint8 {
	if write {
		return flagWrite
	}
	return 0
}

// encodeRes packs a transaction's classification into Payload.B.
func encodeRes(txn coherence.Txn, class coherence.MissClass, trav int) uint64 {
	return uint64(txn) | uint64(class)<<8 | uint64(trav)<<16
}

// decodeRes unpacks encodeRes.
func decodeRes(b uint64) (txn coherence.Txn, class coherence.MissClass, trav int) {
	return coherence.Txn(b), coherence.MissClass(b >> 8), int(b >> 16 & 0xff)
}

// pending is one outstanding request, parked at its requester until
// the response lands. A free record has a nil done.
type pending struct {
	block uint64
	sp    obs.Span
	done  func(at sim.Time, res coherence.Result)
}

// Engine is a full-map directory coherence engine. One engine serves
// the nodes of its node set; a sequential run uses one engine over the
// whole machine, a partitioned run one engine per domain.
type Engine struct {
	*node.Set
	geo  *ring.Geometry
	nets []Interconnect
	seg0 int // segment of nets[0]; 0 on the classic ring
	dir  *memory.Directory
	tr   *obs.Tracer
	// pend[n] holds node n's outstanding requests, indexed by the tag
	// their messages carry.
	pend [][]pending
}

// New returns a directory engine serving the nodes n over nets: one
// classic ring, or the (already linked) segments of the segmented ring
// that carry n's nodes, in ring order. tr, when non-nil, records
// coherence transactions as obs spans with phase annotations; it needs
// the classic ring and the whole machine.
func New(nets []Interconnect, n *node.Set, tr *obs.Tracer) *Engine {
	if len(nets) == 0 {
		panic("directory: New needs an interconnect")
	}
	g := nets[0].Geometry()
	if tr != nil && (g.Segments != 0 || !n.Whole()) {
		panic("directory: tracing needs the classic ring and the whole node range")
	}
	e := &Engine{
		Set:  n,
		geo:  g,
		nets: nets,
		seg0: g.SegOf(n.Lo),
		dir:  memory.NewDirectory(),
		tr:   tr,
		pend: make([][]pending, g.Nodes),
	}
	for _, net := range nets {
		net.SetClient(e)
	}
	n.Bind(e)
	return e
}

// Directory exposes the shared directory store (tests only).
func (e *Engine) Directory() *memory.Directory { return e.dir }

// send injects p at src on the interconnect that carries src.
func (e *Engine) send(src, dst int, class ring.SlotClass, p ring.Payload) sim.Time {
	return e.nets[e.geo.SegOf(src)-e.seg0].SendPayload(src, dst, class, p)
}

// probe sends a point-to-point probe (request, forward, or ack), or
// with dst == ring.Broadcast an invalidation sweep, in the parity slot
// of block p.A. It returns the slot grab time.
func (e *Engine) probe(src, dst int, p ring.Payload) sim.Time {
	return e.send(src, dst, e.geo.ProbeClassFor(p.A), p)
}

// open parks node's request for block until its response lands and
// returns the tag the request's messages carry. Requests are keyed by
// (node, block); the tag tells apart the rare second request for a
// block still in flight (a store that finds the write buffer full
// blocks and misses again on a block its buffered store is still
// acquiring), whose responses may arrive in either order.
func (e *Engine) open(node int, block uint64, sp obs.Span, done func(sim.Time, coherence.Result)) uint16 {
	ps := e.pend[node]
	for i := range ps {
		if ps[i].done == nil {
			ps[i] = pending{block: block, sp: sp, done: done}
			return uint16(i)
		}
	}
	e.pend[node] = append(ps, pending{block: block, sp: sp, done: done})
	return uint16(len(ps))
}

// take retrieves and clears the request a response names.
func (e *Engine) take(node int, tag uint16, block uint64) pending {
	if int(tag) < len(e.pend[node]) {
		if p := &e.pend[node][tag]; p.done != nil && p.block == block {
			r := *p
			*p = pending{}
			return r
		}
	}
	panic(fmt.Sprintf("directory: node %d got a response for block %#x with no matching request", node, block))
}

// spanOf returns the span of a request parked at node. Only a traced
// engine, which owns every node, reads spans at the home.
func (e *Engine) spanOf(node int, tag uint16) obs.Span {
	if e.tr == nil {
		return obs.Span{}
	}
	return e.pend[node][tag].sp
}

// fill installs a block, sending a write-back for any dirty victim.
func (e *Engine) fill(node int, block uint64, st coherence.State) {
	if v := e.Fill(node, block, st); v.Valid && v.Dirty {
		if DebugEvict != nil {
			DebugEvict(node, block, v.Block)
		}
		e.writeBack(node, v.Block)
	}
}

// DebugEvict, when non-nil, observes every dirty eviction (filler block
// and victim). Test-only instrumentation.
var DebugEvict func(node int, filler, victim uint64)

// DebugUpgrade, when non-nil, observes every remote upgrade as the home
// processes it (block, presence population, home, requester, whether
// sharers were found). Test-only instrumentation.
var DebugUpgrade func(block uint64, sharers, home, node int, found bool)

// DebugMiss, when non-nil, observes every remote miss as the home
// processes it. Test-only instrumentation.
var DebugMiss func(block uint64, sharers int, dirty bool, owner, node int, write bool)

// writeBack returns a dirty block to its home, off the critical path.
func (e *Engine) writeBack(node int, block uint64) {
	sp := e.tr.Begin(node, e.K.Now())
	h := e.Home.Home(block)
	if h == node {
		e.Banks[h].Access(func() {
			e.dir.Line(block).RemoveSharer(node) // also clears the dirty bit if owner
		})
		sp.End(e.K.Now(), coherence.WriteBack)
		return
	}
	grab := e.send(node, h, ring.BlockSlot, ring.Payload{Kind: pkWB, X: int32(node), A: block})
	sp.Mark(obs.PhaseData, grab)
	// Traced engines run on the classic ring, where the block is
	// removed at the home one propagation delay after its grab.
	sp.End(grab+e.geo.PropTime(node, h), coherence.WriteBack)
}

// traversals converts a total downstream path length into ring
// traversals (paths always close the loop, so this is exact).
func (e *Engine) traversals(stages int) int {
	t := stages / e.geo.TotalStages
	if stages%e.geo.TotalStages != 0 {
		t++
	}
	if t == 0 {
		t = 1
	}
	return t
}

// classifyDirty maps a dirty-forward path onto the paper's latency
// classes.
func classifyDirty(trav int) coherence.MissClass {
	if trav == 1 {
		return coherence.OneCycleDirty
	}
	return coherence.TwoCycle
}

// sharedElsewhere reports whether ln is cached by anyone other than the
// requester (the home's presence bit counts: its cache copy must be
// invalidated, though that needs no ring traffic).
func sharedElsewhere(ln *memory.Line, requester, home int) bool {
	for _, s := range ln.Sharers() {
		if s != requester && s != home {
			return true
		}
	}
	return false
}

// Miss services a read or write miss.
func (e *Engine) Miss(node int, block uint64, write bool, done func(sim.Time, coherence.Result)) {
	h := e.Home.Home(block)
	sp := e.tr.Begin(node, e.K.Now())
	if h == node {
		e.localMiss(node, block, write, sp, done)
		return
	}
	// Remote home: request probe to h; all decisions are made at the
	// home, serialized by its bank.
	tag := e.open(node, block, sp, done)
	grab := e.probe(node, h, ring.Payload{Kind: pkReq, Flags: writeFlag(write), Tag: tag, X: int32(node), A: block})
	sp.Mark(obs.PhaseProbeGrab, grab)
}

// localMiss handles a miss whose home is the requesting node.
func (e *Engine) localMiss(node int, block uint64, write bool, sp obs.Span, done func(sim.Time, coherence.Result)) {
	e.Banks[node].Access(func() {
		ln := e.dir.Line(block)
		switch {
		case ln.Dirty && ln.Owner != node:
			// Request straight to the dirty node; it supplies the block
			// directly back: exactly one traversal (n→o→n).
			o := ln.Owner
			txn := coherence.ReadMissDirty
			if write {
				txn = coherence.WriteMissDirty
				ln.SetDirty(node)
			} else {
				ln.Dirty = false
				ln.AddSharer(node)
			}
			tag := e.open(node, block, sp, done)
			grab := e.probe(node, o, ring.Payload{Kind: pkOwnerReq, Flags: writeFlag(write), Tag: tag,
				X: int32(node), A: block, B: encodeRes(txn, coherence.OneCycleDirty, 1)})
			sp.Mark(obs.PhaseProbeGrab, grab)
		case write && ln.NumSharers() > 0 && !(ln.NumSharers() == 1 && ln.HasSharer(node)):
			// Local write miss, block shared remotely: multicast and
			// wait for the sweep to return before completing. Latency-
			// wise this is one traversal plus the local fetch — the
			// clean-remote-miss class.
			ln.SetDirty(node)
			tag := e.open(node, block, sp, done)
			grab := e.probe(node, ring.Broadcast, ring.Payload{Kind: pkInvalFill, Tag: tag,
				X: int32(node), A: block, B: encodeRes(coherence.WriteMissClean, coherence.OneCycleClean, 1)})
			sp.Mark(obs.PhaseProbeGrab, grab)
		default:
			// Purely local.
			st, txn := coherence.ReadShared, coherence.ReadMissClean
			if write {
				st, txn = coherence.WriteExclusive, coherence.WriteMissClean
				ln.SetDirty(node)
			} else {
				ln.AddSharer(node)
			}
			e.fill(node, block, st)
			now := e.K.Now()
			sp.Mark(obs.PhaseData, now)
			sp.End(now, txn)
			done(now, coherence.Result{Txn: txn, Local: true})
		}
	})
}

// atHome runs the home-node directory actions for a remote miss, at the
// point the home's bank grants the (lookup + fetch) access.
func (e *Engine) atHome(node int, tag uint16, h int, block uint64, write bool) {
	g := e.geo
	ln := e.dir.Line(block)
	if DebugMiss != nil {
		DebugMiss(block, ln.NumSharers(), ln.Dirty, ln.Owner, node, write)
	}
	resp := ring.Payload{Flags: writeFlag(write), Tag: tag, X: int32(node), A: block}

	switch {
	case ln.Dirty && ln.Owner != node && ln.Owner != h:
		// Forward to the dirty node; it supplies the block to the
		// requester. One extra traversal unless the owner lies on the
		// home→requester arc (Figure 2.b).
		o := ln.Owner
		total := g.DistStages(node, h) + g.DistStages(h, o) + g.DistStages(o, node)
		trav := e.traversals(total)
		txn := coherence.ReadMissDirty
		if write {
			txn = coherence.WriteMissDirty
			ln.SetDirty(node)
		} else {
			ln.Dirty = false
			ln.AddSharer(node)
		}
		resp.Kind, resp.B = pkOwnerReq, encodeRes(txn, classifyDirty(trav), trav)
		e.probe(h, o, resp)

	case write && sharedElsewhere(ln, node, h):
		// Multicast invalidation, then respond: two traversals total.
		// The home's own copy (if any) dies too.
		e.Caches[h].Invalidate(block)
		ln.SetDirty(node)
		resp.Kind, resp.B = pkInvalSend, encodeRes(coherence.WriteMissClean, coherence.TwoCycle, 2)
		e.probe(h, ring.Broadcast, resp)

	default:
		// Clean (or home-owned): the home supplies directly. If the
		// home's own cache holds it WE, it downgrades/invalidates.
		txn := coherence.ReadMissClean
		if ln.Dirty && ln.Owner == h {
			txn = coherence.ReadMissDirty
			if write {
				txn = coherence.WriteMissDirty
				e.Caches[h].Invalidate(block)
			} else {
				e.Caches[h].Downgrade(block)
			}
		} else if write {
			txn = coherence.WriteMissClean
			e.Caches[h].Invalidate(block)
		}
		if write {
			ln.SetDirty(node)
		} else {
			ln.Dirty = false
			ln.AddSharer(node)
		}
		class := coherence.OneCycleClean
		if txn == coherence.ReadMissDirty || txn == coherence.WriteMissDirty {
			class = coherence.OneCycleDirty
		}
		resp.Kind, resp.B = pkData, encodeRes(txn, class, 1)
		e.send(h, node, ring.BlockSlot, resp)
	}
}

// Upgrade services an invalidation request: the requester holds RS and
// asks the home for write permission.
func (e *Engine) Upgrade(node int, block uint64, done func(sim.Time, coherence.Result)) {
	h := e.Home.Home(block)
	sp := e.tr.Begin(node, e.K.Now())
	if h == node {
		e.Banks[h].Access(func() {
			sp.Mark(obs.PhaseAck, e.K.Now())
			ln := e.dir.Line(block)
			shared := sharedElsewhere(ln, node, node)
			ln.SetDirty(node)
			if !shared {
				e.finishUpgrade(node, block, e.K.Now(), 0, pending{sp: sp, done: done})
				return
			}
			tag := e.open(node, block, sp, done)
			grab := e.probe(node, ring.Broadcast, ring.Payload{Kind: pkInvalLocal, Tag: tag,
				X: int32(node), A: block, B: encodeRes(coherence.Invalidation, coherence.LocalOrHit, 1)})
			sp.Mark(obs.PhaseProbeGrab, grab)
		})
		return
	}
	tag := e.open(node, block, sp, done)
	grab := e.probe(node, h, ring.Payload{Kind: pkUpReq, Tag: tag, X: int32(node), A: block})
	sp.Mark(obs.PhaseProbeGrab, grab)
}

// upgradeAtHome runs the home's actions for a remote upgrade, at the
// point the home's bank grants the directory access.
func (e *Engine) upgradeAtHome(node int, tag uint16, h int, block uint64) {
	ln := e.dir.Line(block)
	shared := sharedElsewhere(ln, node, h)
	if DebugUpgrade != nil {
		DebugUpgrade(block, ln.NumSharers(), h, node, shared)
	}
	e.Caches[h].Invalidate(block)
	ln.SetDirty(node)
	p := ring.Payload{Kind: pkAck, Tag: tag, X: int32(node), A: block,
		B: encodeRes(coherence.Invalidation, coherence.LocalOrHit, 1)}
	if shared {
		// Multicast first; the ack follows the sweep's return.
		p.Kind, p.B = pkInvalAck, encodeRes(coherence.Invalidation, coherence.LocalOrHit, 2)
		e.probe(h, ring.Broadcast, p)
		return
	}
	e.probe(h, node, p)
}

// finishUpgrade grants write permission at the requester.
func (e *Engine) finishUpgrade(node int, block uint64, at sim.Time, trav int, req pending) {
	if !e.Caches[node].Upgrade(block) {
		// Invalidated by a racing writer while our request was in
		// flight; the permission grant still stands per the directory,
		// so install fresh.
		e.fill(node, block, coherence.WriteExclusive)
	}
	req.sp.End(at, coherence.Invalidation)
	req.done(at, coherence.Result{Txn: coherence.Invalidation, Traversals: trav, Local: trav == 0})
}

// complete installs a response's block at the requester and finishes
// the request, marking its span's last phase.
func (e *Engine) complete(node int, at sim.Time, p ring.Payload, st coherence.State, ph obs.Phase) {
	req := e.take(node, p.Tag, p.A)
	txn, class, trav := decodeRes(p.B)
	e.fill(node, p.A, st)
	req.sp.Mark(ph, at)
	req.sp.End(at, txn)
	req.done(at, coherence.Result{Txn: txn, Class: class, Traversals: trav})
}

// Deliver interprets a point-to-point message at its destination.
func (e *Engine) Deliver(dst int, at sim.Time, p ring.Payload) {
	block := p.A
	req := int(p.X)
	write := p.Flags&flagWrite != 0
	switch p.Kind {
	case pkReq, pkUpReq:
		// dst is the home. Its bank serializes the directory lookup;
		// the grant is the directory protocol's "ack observed"
		// waypoint: the request is now being serviced.
		e.Banks[dst].Access(func() {
			e.spanOf(req, p.Tag).Mark(obs.PhaseAck, e.K.Now())
			if p.Kind == pkReq {
				e.atHome(req, p.Tag, dst, block, write)
			} else {
				e.upgradeAtHome(req, p.Tag, dst, block)
			}
		})

	case pkOwnerReq:
		// dst is the dirty owner: fetch from cache, downgrade or
		// invalidate the copy, ship the block to the requester.
		if write {
			e.Caches[dst].Invalidate(block)
		} else {
			e.Caches[dst].Downgrade(block)
		}
		p.Kind = pkData
		e.Fetch(dst, true, func() {
			e.send(dst, req, ring.BlockSlot, p)
		})

	case pkData:
		st := coherence.ReadShared
		if write {
			st = coherence.WriteExclusive
		}
		e.complete(dst, at, p, st, obs.PhaseData)

	case pkAck:
		_, _, trav := decodeRes(p.B)
		e.finishUpgrade(dst, block, at, trav, e.take(dst, p.Tag, block))

	case pkWB:
		// dst is the home: record the returned block.
		e.Banks[dst].Access(func() {
			e.dir.Line(block).RemoveSharer(req) // also clears the dirty bit if owner
		})

	default:
		panic(fmt.Sprintf("directory: unexpected delivery kind %d at node %d", p.Kind, dst))
	}
}

// Visit observes a passing message head. Only invalidation sweeps act
// on the nodes they pass: every copy except the requester's dies.
func (e *Engine) Visit(node int, at sim.Time, p ring.Payload) {
	switch p.Kind {
	case pkInvalFill, pkInvalLocal, pkInvalSend, pkInvalAck:
		if node != int(p.X) {
			e.Caches[node].Invalidate(p.A)
		}
	}
}

// Return completes an invalidation sweep at its source.
func (e *Engine) Return(src int, at sim.Time, p ring.Payload) {
	switch p.Kind {
	case pkInvalFill:
		// src is the requesting home node: install write-exclusive.
		e.complete(src, at, p, coherence.WriteExclusive, obs.PhaseAck)

	case pkInvalLocal:
		_, _, trav := decodeRes(p.B)
		e.finishUpgrade(src, p.A, at, trav, e.take(src, p.Tag, p.A))

	case pkInvalSend:
		// src is the home: ship the data to the requester.
		p.Kind = pkData
		e.send(src, int(p.X), ring.BlockSlot, p)

	case pkInvalAck:
		// src is the home: ack the upgrade.
		p.Kind = pkAck
		e.probe(src, int(p.X), p)

	default:
		panic(fmt.Sprintf("directory: unexpected broadcast return kind %d at node %d", p.Kind, src))
	}
}
