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

	"repro/internal/cache"
	"repro/internal/coherence"
	"repro/internal/memory"
	"repro/internal/obs"
	"repro/internal/ring"
	"repro/internal/sim"
)

// CacheSupplyTime is the dirty owner's cache fetch time for a
// cache-to-cache transfer (see the snoop package for the rationale).
const CacheSupplyTime = memory.BankTime

// Interconnect is a transport the engine sends its messages over: the
// classic slotted ring, or one segment of the segmented ring. It
// reports the messages it carries to its Client.
type Interconnect interface {
	Kernel() *sim.Kernel
	Geometry() *ring.Geometry
	SetClient(c ring.Client)
	SendPayload(src, dst int, class ring.SlotClass, p ring.Payload) sim.Time
}

var (
	_ Interconnect = (*ring.Ring)(nil)
	_ Interconnect = (*ring.SegRing)(nil)
)

// Options configures an Engine.
type Options struct {
	// Cache is the per-node cache geometry (zero: paper defaults).
	Cache cache.Config
	// PageBytes is the home-placement granularity; default 4096.
	PageBytes int
	// Seed drives the random page-to-home placement.
	Seed uint64
	// Home, when non-nil, supplies a pre-built page-to-home placement
	// (e.g. one with private-data hints); PageBytes and Seed are then
	// ignored.
	Home *memory.HomeMap
	// Tracer, when non-nil, records coherence transactions as obs
	// spans with phase annotations. It needs the classic ring and the
	// whole node range.
	Tracer *obs.Tracer
	// NodeLo/NodeHi, when NodeHi > 0, restrict the engine to nodes in
	// [NodeLo, NodeHi): only their caches and banks are allocated, and
	// the interconnects must carry their sends. The parallel
	// partitioner builds one such engine per domain — a node-range
	// engine that somehow touches a node outside its range hits a nil
	// cache or bank immediately instead of silently corrupting a peer
	// partition's state. Zero values mean all nodes.
	NodeLo, NodeHi int
}

func (o *Options) fill() {
	if o.PageBytes == 0 {
		o.PageBytes = 4096
	}
}

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
// the node range its options name; a sequential run uses one engine
// over the whole machine, a partitioned run one engine per domain.
type Engine struct {
	k      *sim.Kernel
	geo    *ring.Geometry
	nets   []Interconnect
	seg0   int // segment of nets[0]; 0 on the classic ring
	caches []*cache.Cache
	banks  []*memory.Bank
	home   *memory.HomeMap
	dir    *memory.Directory
	tr     *obs.Tracer
	// pend[n] holds node n's outstanding requests, indexed by the tag
	// their messages carry.
	pend [][]pending

	// WriteBacks counts dirty-eviction block messages.
	WriteBacks uint64
	wbByNode   []uint64
}

// New returns a directory engine over nets: one classic ring, or the
// (already linked) segments of the segmented ring that carry the
// engine's nodes, in ring order.
func New(nets []Interconnect, opts Options) *Engine {
	opts.fill()
	if len(nets) == 0 {
		panic("directory: New needs an interconnect")
	}
	g := nets[0].Geometry()
	n := g.Nodes
	lo, hi := 0, n
	if opts.NodeHi > 0 {
		lo, hi = opts.NodeLo, opts.NodeHi
	}
	if opts.Tracer != nil && (g.Segments != 0 || lo != 0 || hi != n) {
		panic("directory: tracing needs the classic ring and the whole node range")
	}
	e := &Engine{
		k:        nets[0].Kernel(),
		geo:      g,
		nets:     nets,
		seg0:     g.SegOf(lo),
		caches:   make([]*cache.Cache, n),
		banks:    make([]*memory.Bank, n),
		home:     homeMapFor(n, opts),
		dir:      memory.NewDirectory(),
		tr:       opts.Tracer,
		pend:     make([][]pending, n),
		wbByNode: make([]uint64, n),
	}
	for i := lo; i < hi; i++ {
		e.caches[i] = cache.New(opts.Cache)
		e.banks[i] = memory.NewBank(e.k, "mem")
	}
	for _, net := range nets {
		net.SetClient(e)
	}
	return e
}

// WriteBacksOf returns the write-backs caused by node's own evictions;
// the core's per-processor warmup gating reads it.
func (e *Engine) WriteBacksOf(node int) uint64 { return e.wbByNode[node] }

// Cache returns node's cache.
func (e *Engine) Cache(node int) *cache.Cache { return e.caches[node] }

// HomeMap returns the page-to-home placement.
func (e *Engine) HomeMap() *memory.HomeMap { return e.home }

// Directory exposes the shared directory store (tests only).
func (e *Engine) Directory() *memory.Directory { return e.dir }

// HasBlock reports whether node currently caches the block containing
// addr in a readable state (RS or WE). The core's write-buffer model
// uses it to decide whether a load can bypass an outstanding store.
func (e *Engine) HasBlock(node int, addr uint64) bool {
	c := e.caches[node]
	return c.State(c.BlockAddr(addr)) != coherence.Invalid
}

// Access performs one data reference for node; done fires at completion.
func (e *Engine) Access(node int, addr uint64, write bool, done func(at sim.Time, res coherence.Result)) {
	c := e.caches[node]
	block := c.BlockAddr(addr)
	switch c.Lookup(addr, write) {
	case cache.Hit:
		done(e.k.Now(), coherence.Result{Hit: true})
	case cache.MissRead:
		e.miss(node, block, false, done)
	case cache.MissWrite:
		e.miss(node, block, true, done)
	case cache.Upgrade:
		e.upgrade(node, block, done)
	}
}

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
	if v := e.caches[node].Fill(block, st); v.Valid && v.Dirty {
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
	e.WriteBacks++
	e.wbByNode[node]++
	sp := e.tr.Begin(node, e.k.Now())
	h := e.home.Home(block)
	if h == node {
		e.banks[h].Access(func() {
			e.dir.Line(block).RemoveSharer(node) // also clears the dirty bit if owner
		})
		sp.End(e.k.Now(), coherence.WriteBack)
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

// miss services a read or write miss.
func (e *Engine) miss(node int, block uint64, write bool, done func(sim.Time, coherence.Result)) {
	h := e.home.Home(block)
	sp := e.tr.Begin(node, e.k.Now())
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
	e.banks[node].Access(func() {
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
			now := e.k.Now()
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
		e.caches[h].Invalidate(block)
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
				e.caches[h].Invalidate(block)
			} else {
				e.caches[h].Downgrade(block)
			}
		} else if write {
			txn = coherence.WriteMissClean
			e.caches[h].Invalidate(block)
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

// upgrade services an invalidation request: the requester holds RS and
// asks the home for write permission.
func (e *Engine) upgrade(node int, block uint64, done func(sim.Time, coherence.Result)) {
	h := e.home.Home(block)
	sp := e.tr.Begin(node, e.k.Now())
	if h == node {
		e.banks[h].Access(func() {
			sp.Mark(obs.PhaseAck, e.k.Now())
			ln := e.dir.Line(block)
			shared := sharedElsewhere(ln, node, node)
			ln.SetDirty(node)
			if !shared {
				e.finishUpgrade(node, block, e.k.Now(), 0, pending{sp: sp, done: done})
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
	e.caches[h].Invalidate(block)
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
	if !e.caches[node].Upgrade(block) {
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
		e.banks[dst].Access(func() {
			e.spanOf(req, p.Tag).Mark(obs.PhaseAck, e.k.Now())
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
			e.caches[dst].Invalidate(block)
		} else {
			e.caches[dst].Downgrade(block)
		}
		p.Kind = pkData
		e.k.After(CacheSupplyTime, func() {
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
		e.banks[dst].Access(func() {
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
			e.caches[node].Invalidate(p.A)
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

// homeMapFor returns the configured home map, or builds the default
// seeded-random page placement.
func homeMapFor(n int, opts Options) *memory.HomeMap {
	if opts.Home != nil {
		return opts.Home
	}
	return memory.NewHomeMap(n, opts.PageBytes, sim.NewRand(opts.Seed))
}
