package ring

import (
	"fmt"

	"repro/internal/sim"
)

// The segmented ring (Config.Segments >= 2) partitions the
// unidirectional ring into contiguous node segments so that a parallel
// run can give each kernel shard a segment and carry real coherence
// traffic across shard boundaries. It is a distinct model variant, not
// a re-execution strategy for the classic global-slot ring: slot
// acquisition becomes per-node injection serialization
// (register-insertion style) and each segment boundary is a
// store-and-forward link that serializes crossing messages per class.
// The boundary link's propagation latency is the model's lookahead —
// a message that crosses is always at least one hop in the future, so
// a conservative window no wider than the minimum hop can deliver it
// before the destination's clock can reach it.
//
// Determinism is by projection equivalence. All state a message
// touches inside a segment (injection points, the exit link, the
// segment's stats) is owned by that segment, and the only cross-segment
// effect is the boundary handoff, scheduled at an explicit banded
// calendar position (sim.BoundarySeqBand | link<<40 | fifo) derived
// purely from the model: the link id and the link's crossing count in
// upstream dispatch order. A sequential run (all segments on one
// kernel, handoffs via Kernel.AtBoundary) and a parallel run (segments
// sharded, handoffs via ParKernel.PostAt) therefore build identical
// per-segment calendars, making the runs byte-identical.

// boundarySeq is the banded calendar position of the fifo-th crossing
// of boundary link `link`.
func boundarySeq(link int, fifo uint64) uint64 {
	return sim.BoundarySeqBand | uint64(link)<<40 | fifo
}

// SegRing is one segment of the segmented ring variant: the injection
// points of its nodes, its exit boundary link, and its share of the
// traffic statistics. Build one per segment with NewSegment, wire the
// chain with Link and SetClient, then SendPayload from the segment's
// own nodes (on its own kernel).
type SegRing struct {
	Geo Geometry

	k      *sim.Kernel
	seg    int
	lo, hi int // node range [lo, hi)
	hop    sim.Time

	client Client
	next   *SegRing
	cross  func(at sim.Time, seq uint64, h sim.EventHandler)

	// nodeFree[n-lo][c] is when node n's class-c injection point frees
	// up; linkFree[c] is the same for the exit link. fifo counts exit
	// crossings (the band-seq tie-breaker).
	nodeFree [][NumSlotClasses]sim.Time
	linkFree [NumSlotClasses]sim.Time
	fifo     uint64

	stats [NumSlotClasses]classStats
	start sim.Time
	pool  segPool
}

// NewSegment returns segment seg of cfg's segmented ring attached to
// k. cfg.Segments must be at least 2 and divide cfg.Nodes.
func NewSegment(k *sim.Kernel, cfg Config, seg int) *SegRing {
	g := NewGeometry(cfg)
	if g.Segments < 2 {
		panic("ring: NewSegment needs Config.Segments >= 2")
	}
	if seg < 0 || seg >= g.Segments {
		panic(fmt.Sprintf("ring: segment %d out of range [0,%d)", seg, g.Segments))
	}
	lo, hi := g.SegmentBounds(seg)
	return &SegRing{
		Geo:      g,
		k:        k,
		seg:      seg,
		lo:       lo,
		hi:       hi,
		hop:      g.BoundaryHop(seg),
		nodeFree: make([][NumSlotClasses]sim.Time, hi-lo),
		start:    k.Now(),
	}
}

// NewSegmentedChain builds every segment of cfg on one kernel, linked
// with local boundary scheduling — the sequential execution of the
// segmented model, and the reference a sharded run must match byte for
// byte.
func NewSegmentedChain(k *sim.Kernel, cfg Config) []*SegRing {
	g := NewGeometry(cfg)
	segs := make([]*SegRing, g.Segments)
	for s := range segs {
		segs[s] = NewSegment(k, cfg, s)
	}
	for s, sr := range segs {
		sr.Link(segs[(s+1)%len(segs)], k.AtBoundary)
	}
	return segs
}

// Link wires the downstream neighbor and the boundary scheduler. In a
// sequential run cross is the shared kernel's AtBoundary; in a
// parallel run it routes through ParKernel.PostAt (or AtBoundary when
// both segments share a shard). The handler passed to cross must fire
// on next's kernel.
func (sr *SegRing) Link(next *SegRing, cross func(at sim.Time, seq uint64, h sim.EventHandler)) {
	sr.next = next
	sr.cross = cross
}

// SetClient registers the callback receiver for this segment's nodes.
func (sr *SegRing) SetClient(c Client) { sr.client = c }

// Kernel returns the kernel this segment is attached to.
func (sr *SegRing) Kernel() *sim.Kernel { return sr.k }

// Geometry returns the whole ring's geometry.
func (sr *SegRing) Geometry() *Geometry { return &sr.Geo }

// Segment returns this segment's index.
func (sr *SegRing) Segment() int { return sr.seg }

// NodeRange returns the segment's node range [lo, hi).
func (sr *SegRing) NodeRange() (lo, hi int) { return sr.lo, sr.hi }

// Hop returns the exit boundary link's latency.
func (sr *SegRing) Hop() sim.Time { return sr.hop }

// SendPayload injects one message at src (which must be one of this
// segment's nodes, on this segment's kernel). dst is a node id or
// Broadcast. Delivery, visits and broadcast return are reported
// through the chain's Clients. It returns the departure time: when the
// message head cleared src's injection point.
func (sr *SegRing) SendPayload(src, dst int, class SlotClass, p Payload) sim.Time {
	g := &sr.Geo
	if src < sr.lo || src >= sr.hi {
		panic(fmt.Sprintf("ring: source node %d outside segment %d range [%d,%d)", src, sr.seg, sr.lo, sr.hi))
	}
	if dst != Broadcast && (dst < 0 || dst >= g.Nodes || dst == src) {
		panic(fmt.Sprintf("ring: bad destination %d from %d", dst, src))
	}
	now := sr.k.Now()
	dep := now
	if nf := sr.nodeFree[src-sr.lo][class]; nf > dep {
		dep = nf
	}
	sr.nodeFree[src-sr.lo][class] = dep + g.SlotTime(class)

	st := &sr.stats[class]
	st.messages++
	st.waitSum += dep - now

	sr.leg(dep, src, src, dst, class, p, true)
	return dep
}

// leg processes a message's traversal of this segment: the head is at
// entryNode at t0 (the source's departure for an injection leg, the
// boundary arrival for a continuation leg, which always enters at the
// segment's first node). It schedules the segment's visit/terminal
// events, and for a continuing message reserves the exit link and
// hands off to the downstream segment at a banded calendar position.
func (sr *SegRing) leg(t0 sim.Time, entryNode, origSrc, dst int, class SlotClass, p Payload, injected bool) {
	g := &sr.Geo

	// Terminal action inside this segment, if any.
	endNode := -1
	ret := false
	if dst == Broadcast {
		if !injected && origSrc >= sr.lo && origSrc < sr.hi {
			endNode, ret = origSrc, true // full circle: remove at source
		}
	} else if dst >= sr.lo && dst < sr.hi && (!injected || dst > entryNode) {
		endNode = dst
	}

	// Nodes the head visits on this leg, in downstream order.
	firstVisit := entryNode
	if injected {
		firstVisit = entryNode + 1
	}
	lastVisit := sr.hi - 1
	if endNode >= 0 {
		lastVisit = endNode - 1
	}

	if endNode < 0 {
		// Continue downstream: serialize on the exit link (reservation
		// semantics, decided in this segment's deterministic dispatch
		// order), then arrive at the next segment's first node one hop
		// later — never sooner, which is the lookahead contract the
		// parallel window relies on.
		tE := t0 + g.PropTime(entryNode, sr.hi-1)
		ldep := tE
		if lf := sr.linkFree[class]; lf > ldep {
			ldep = lf
		}
		sr.linkFree[class] = ldep + g.SlotTime(class)
		arr := ldep + sr.hop
		sr.stats[class].transit += arr - t0
		seq := boundarySeq(sr.seg, sr.fifo)
		sr.fifo++
		sr.cross(arr, seq, &legEntry{next: sr.next, origSrc: origSrc, dst: dst, class: class, p: p})
	} else {
		sr.stats[class].transit += g.PropTime(entryNode, endNode)
	}

	if firstVisit > lastVisit && endNode < 0 {
		return // nothing observable in this segment
	}
	w := sr.pool.get()
	w.sr = sr
	w.p = p
	w.t0 = t0
	w.entryNode = entryNode
	w.node = firstVisit
	w.lastVisit = lastVisit
	w.endNode = endNode
	w.ret = ret
	if firstVisit <= lastVisit {
		sr.k.AtEvent(t0+g.PropTime(entryNode, firstVisit), w)
	} else {
		sr.k.AtEvent(t0+g.PropTime(entryNode, endNode), w)
	}
}

// legEntry is a boundary crossing in flight: allocated by the upstream
// segment, fired on the downstream segment's kernel. It is not pooled
// — pooling across shards would race — but crossings are the rare path
// by construction.
type legEntry struct {
	next    *SegRing
	origSrc int
	dst     int
	class   SlotClass
	p       Payload
}

func (le *legEntry) OnEvent(at sim.Time) {
	sr := le.next
	sr.leg(at, sr.lo, le.origSrc, le.dst, le.class, le.p, false)
}

// segWalk is the pooled per-leg visit chain, mirroring sweepMsg: one
// calendar entry walks the leg's visited nodes and fires the terminal
// delivery/return, re-arming itself hop to hop and recycling before
// the final callback so clients are free to Send again immediately.
type segWalk struct {
	sr        *SegRing
	p         Payload
	t0        sim.Time
	entryNode int
	node      int
	lastVisit int
	endNode   int // -1: leg continues downstream, no terminal here
	ret       bool
	next      *segWalk
}

// segPool recycles segWalk records; each SegRing owns one, so records
// never migrate between shards.
type segPool struct{ free *segWalk }

func (p *segPool) get() *segWalk {
	w := p.free
	if w == nil {
		return &segWalk{}
	}
	p.free = w.next
	w.next = nil
	return w
}

func (w *segWalk) release() {
	sr := w.sr
	w.sr = nil
	w.next = sr.pool.free
	sr.pool.free = w
}

func (w *segWalk) OnEvent(at sim.Time) {
	sr := w.sr
	if w.node <= w.lastVisit {
		node := w.node
		w.node++
		if w.node <= w.lastVisit {
			sr.k.AtEvent(w.t0+sr.Geo.PropTime(w.entryNode, w.node), w)
		} else if w.endNode >= 0 {
			sr.k.AtEvent(w.t0+sr.Geo.PropTime(w.entryNode, w.endNode), w)
		} else {
			p := w.p
			w.release()
			sr.client.Visit(node, at, p)
			return
		}
		sr.client.Visit(node, at, w.p)
		return
	}
	endNode, ret, p := w.endNode, w.ret, w.p
	w.release()
	if ret {
		sr.client.Return(endNode, at, p)
	} else {
		sr.client.Deliver(endNode, at, p)
	}
}

// ResetStats zeroes this segment's message and occupancy statistics;
// the measurement window restarts now. Segments reset independently
// (each at its own warm-up instant) so the accounting is identical
// however the segments are sharded.
func (sr *SegRing) ResetStats() {
	sr.stats = [NumSlotClasses]classStats{}
	sr.start = sr.k.Now()
}

// Messages reports how many messages of the class this segment's nodes
// injected since the last reset.
func (sr *SegRing) Messages(class SlotClass) uint64 { return sr.stats[class].messages }

// MeanWait reports the average injection wait for the class.
func (sr *SegRing) MeanWait(class SlotClass) sim.Time {
	st := &sr.stats[class]
	if st.messages == 0 {
		return 0
	}
	return st.waitSum / sim.Time(st.messages)
}

// Totals returns the segment's head-occupancy integral across all
// classes and the start of its measurement window. Occupancy is
// attributed leg by leg: each segment accounts the span from a
// message's entry (or injection) to its exit onto the boundary link
// (link wait and hop included) or its removal. Callers combine the
// per-segment integrals into a ring-wide utilization:
//
//	util = sum(transit) * S / ((S*end - sum(start)) * NumSlots)
//
// which reduces to the classic OverallUtilization when every segment
// shares one window.
func (sr *SegRing) Totals() (transit sim.Time, start sim.Time) {
	for c := range sr.stats {
		transit += sr.stats[c].transit
	}
	return transit, sr.start
}
