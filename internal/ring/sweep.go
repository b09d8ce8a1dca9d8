package ring

import "repro/internal/sim"

// The sweep machinery below is the allocation-free engine behind the
// visit/done callbacks of Ring.Send and TokenRing.Send. A message that
// passes k downstream nodes used to schedule k+1 independent closures,
// each heap-allocated and boxed through the event calendar; now a single
// pooled sweepMsg record chains itself from hop to hop, holding exactly
// one calendar entry per in-flight message and allocating nothing in the
// steady state.
//
// Determinism contract: the seed implementation assigned one kernel
// sequence number per visit (in downstream order) plus one for the
// removal, all claimed at Send time. launchSweep reserves the same
// count of consecutive sequence numbers up front (sim.Kernel.ReserveSeq)
// and replays them one per hop via AtReserved, so the global (time, seq)
// dispatch order — and therefore every metric — is bit-identical to the
// per-closure scheduler it replaces.

// hop is one precomputed downstream visit: the node index and its
// distance from the source in ring stages.
type hop struct {
	node int32
	d    int32
}

// msgPool recycles sweepMsg records; each ring variant owns one. Not
// safe for concurrent use — like the kernel itself, a ring belongs to
// one simulation goroutine.
type msgPool struct{ free *sweepMsg }

func (p *msgPool) get() *sweepMsg {
	m := p.free
	if m == nil {
		return &sweepMsg{pool: p}
	}
	p.free = m.next
	m.next = nil
	return m
}

// sweepMsg is the schedule of one in-flight message: its precomputed
// visit hops and removal instant. It implements sim.EventHandler and
// re-arms itself for the next hop from inside each dispatch.
type sweepMsg struct {
	k     *sim.Kernel
	pool  *msgPool
	clock sim.Time
	visit func(node int, at sim.Time)
	done  func(at sim.Time)
	// client, when non-nil, receives a payload message's callbacks in
	// place of visit/done: Deliver at end, or Return at end (the
	// source) when ret is set.
	client  Client
	p       Payload
	end     int
	ret     bool
	term    bool // a terminal event follows the visits
	grab    sim.Time
	removal sim.Time
	baseSeq uint64
	idx     int
	hops    []hop
	next    *sweepMsg
}

// release returns the record to its pool. Callbacks are dropped so the
// pool does not pin caller state between messages; the hops slice keeps
// its capacity.
func (m *sweepMsg) release() {
	m.visit, m.done, m.client = nil, nil, nil
	m.hops = m.hops[:0]
	m.idx = 0
	m.next = m.pool.free
	m.pool.free = m
}

// launchSweep schedules the visit/done callbacks for one message sent
// from src toward dst (Broadcast for a full traversal) that grabbed its
// slot at grab and is removed at removal. It reproduces the seed
// scheduler's skip logic and sequence-number consumption exactly; see
// the package comment above.
func launchSweep(k *sim.Kernel, p *msgPool, g *Geometry, src, dst int, grab, removal sim.Time,
	visit func(node int, at sim.Time), done func(at sim.Time)) {
	if visit == nil && done == nil {
		return
	}
	m := p.get()
	m.visit, m.done = visit, done
	m.launch(k, g, src, dst, grab, removal, visit != nil, done != nil)
}

// launchPayload schedules a payload message's callbacks on c: visits
// for a broadcast only, then Deliver at dst or Return at src. Its
// calendar positions are those of launchSweep with a visit callback
// for broadcasts, without one otherwise, and always with done.
func launchPayload(k *sim.Kernel, pool *msgPool, g *Geometry, src, dst int, grab, removal sim.Time, c Client, p Payload) {
	m := pool.get()
	m.client, m.p, m.end, m.ret = c, p, dst, dst == Broadcast
	if m.ret {
		m.end = src
	}
	m.launch(k, g, src, dst, grab, removal, dst == Broadcast, true)
}

// launch precomputes m's hops and claims its calendar positions.
func (m *sweepMsg) launch(k *sim.Kernel, g *Geometry, src, dst int, grab, removal sim.Time, visits, term bool) {
	m.k = k
	m.clock = g.ClockPS
	m.term = term
	m.grab, m.removal = grab, removal
	if visits {
		last := g.Nodes // broadcast: everyone but src
		if dst != Broadcast {
			last = g.DistStages(src, dst) // only nodes strictly before dst
		}
		for i := 1; i < g.Nodes; i++ {
			node := (src + i) % g.Nodes
			d := g.DistStages(src, node)
			if dst != Broadcast && d >= last {
				continue
			}
			m.hops = append(m.hops, hop{node: int32(node), d: int32(d)})
		}
	}
	n := len(m.hops)
	if term {
		n++
	}
	if n == 0 {
		m.release()
		return
	}
	m.baseSeq = k.ReserveSeq(n)
	if len(m.hops) > 0 {
		k.AtReserved(grab+sim.Time(m.hops[0].d)*m.clock, m.baseSeq, m)
	} else {
		k.AtReserved(removal, m.baseSeq, m)
	}
}

// OnEvent fires one step of the sweep: a visit at the current hop, or
// the final removal. The next calendar entry is armed before the user
// callback runs, and on the last step the record is recycled first, so
// callbacks are free to Send again (and reuse this very record) without
// corrupting the sweep.
func (m *sweepMsg) OnEvent(at sim.Time) {
	visit, c, p := m.visit, m.client, m.p
	if m.idx < len(m.hops) {
		node := int(m.hops[m.idx].node)
		m.idx++
		if m.idx < len(m.hops) {
			nh := m.hops[m.idx]
			m.k.AtReserved(m.grab+sim.Time(nh.d)*m.clock, m.baseSeq+uint64(m.idx), m)
		} else if m.term {
			m.k.AtReserved(m.removal, m.baseSeq+uint64(len(m.hops)), m)
		} else {
			m.release()
		}
		if c != nil {
			c.Visit(node, at, p)
		} else {
			visit(node, at)
		}
		return
	}
	done, removal, end, ret := m.done, m.removal, m.end, m.ret
	m.release()
	switch {
	case c == nil:
		done(removal)
	case ret:
		c.Return(end, removal, p)
	default:
		c.Deliver(end, removal, p)
	}
}
