// Package bus models the baseline interconnect of Section 4.3: a
// pipelined split-transaction bus in the style of FutureBus+ (IEEE
// 896.x), 64 bits wide, clocked at 50 or 100 MHz, with the address
// phase snooped by every node.
//
// Transactions are split: a request (address) tenure and the matching
// response (data) tenure occupy the bus separately, so the bus is free
// for other traffic while memory is fetching. With the default
// geometry a remote miss costs the paper's minimum of six bus cycles —
// a 2-cycle request plus a 4-cycle response — excluding arbitration and
// memory access time.
package bus

import (
	"errors"
	"fmt"

	"repro/internal/sim"
)

// TenureKind classifies a bus tenure.
type TenureKind uint8

const (
	// Request is an address/command tenure (read miss, write miss, or
	// invalidation), snooped by every node.
	Request TenureKind = iota
	// Response is a data tenure returning one cache block.
	Response
	// WriteBack is a block transfer to memory off the critical path.
	WriteBack
	numTenures
)

// NumTenureKinds is the number of distinct tenure kinds.
const NumTenureKinds = int(numTenures)

// String names the tenure kind.
func (k TenureKind) String() string {
	switch k {
	case Request:
		return "request"
	case Response:
		return "response"
	case WriteBack:
		return "write-back"
	default:
		return fmt.Sprintf("TenureKind(%d)", uint8(k))
	}
}

// Arbitration selects the bus grant policy.
type Arbitration uint8

const (
	// FCFS grants tenures in request order — a fair baseline whose
	// aggregate behaviour matches any work-conserving arbiter.
	FCFS Arbitration = iota
	// RoundRobin rotates priority among nodes, as FutureBus+-class
	// arbiters do: after each grant the served node becomes the lowest
	// priority, so no node can capture consecutive grants while others
	// wait.
	RoundRobin
)

// Config describes a split-transaction bus.
type Config struct {
	// Nodes is the number of processors on the bus.
	Nodes int
	// ClockPS is the bus cycle time; the paper evaluates 20 ns
	// (50 MHz) and 10 ns (100 MHz) buses.
	ClockPS sim.Time
	// WidthBits is the data path width; default 64.
	WidthBits int
	// BlockBytes is the cache block size; default 16.
	BlockBytes int
	// Arbiter selects the grant policy; default FCFS.
	Arbiter Arbitration
}

// DefaultClock is the 50 MHz bus of Figure 6.
const DefaultClock = 20 * sim.Nanosecond

func (c *Config) fill() {
	if c.ClockPS == 0 {
		c.ClockPS = DefaultClock
	}
	if c.WidthBits == 0 {
		c.WidthBits = 64
	}
	if c.BlockBytes == 0 {
		c.BlockBytes = 16
	}
}

// Validate reports whether the configuration, zero fields taking the
// defaults, describes a bus.
func (c Config) Validate() error {
	c.fill()
	if c.Nodes <= 0 {
		return errors.New("bus: need at least one node")
	}
	if c.ClockPS < 0 {
		return fmt.Errorf("bus: negative clock period %v", c.ClockPS)
	}
	if c.WidthBits <= 0 || c.BlockBytes*8%c.WidthBits != 0 {
		return errors.New("bus: block size must be a whole number of bus words")
	}
	return nil
}

// Geometry holds the derived tenure costs.
type Geometry struct {
	Config
	// RequestCycles is the address tenure length (command + address).
	RequestCycles int
	// ResponseCycles is the data tenure length: a header cycle, the
	// data transfer, and a turnaround cycle.
	ResponseCycles int
	// WriteBackCycles is a block transfer without the turnaround.
	WriteBackCycles int
}

// NewGeometry computes tenure costs, applying defaults to zero fields.
func NewGeometry(cfg Config) Geometry {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	cfg.fill()
	data := cfg.BlockBytes * 8 / cfg.WidthBits
	return Geometry{
		Config:          cfg,
		RequestCycles:   2,
		ResponseCycles:  1 + data + 1,
		WriteBackCycles: 1 + data,
	}
}

// TenureTime returns the bus occupancy of a tenure kind.
func (g *Geometry) TenureTime(k TenureKind) sim.Time {
	var cy int
	switch k {
	case Request:
		cy = g.RequestCycles
	case Response:
		cy = g.ResponseCycles
	case WriteBack:
		cy = g.WriteBackCycles
	default:
		panic("bus: unknown tenure kind")
	}
	return sim.Time(cy) * g.ClockPS
}

// MissCycles returns the minimum bus cycles consumed by one remote miss
// (request + response), the paper's "minimum of six".
func (g *Geometry) MissCycles() int { return g.RequestCycles + g.ResponseCycles }

// Bus is a live split-transaction bus attached to a simulation kernel.
type Bus struct {
	Geo Geometry
	// OnTenure, when non-nil, observes every granted tenure with its
	// kind, grant time and end time — the occupancy feed for the obs
	// tracer's bus timeline. The nil default costs serve one branch.
	OnTenure func(kind TenureKind, grant, end sim.Time)

	k   *sim.Kernel
	res *sim.Resource

	tenures   [numTenures]uint64
	waitSum   sim.Time
	grants    uint64
	snoopFree *snoopSweep // recycled snoop fan-outs (zero-alloc steady state)

	// Round-robin arbiter state.
	rrPending [][]pendingTenure
	rrBusy    bool
	rrLast    int
}

// pendingTenure is one queued request at the round-robin arbiter.
type pendingTenure struct {
	src   int
	kind  TenureKind
	snoop func(node int, at sim.Time)
	done  func(at sim.Time)
	since sim.Time
}

// New returns a bus with the given configuration attached to k.
func New(k *sim.Kernel, cfg Config) *Bus {
	g := NewGeometry(cfg)
	b := &Bus{Geo: g, k: k, res: sim.NewResource(k, "bus", 1)}
	if g.Arbiter == RoundRobin {
		b.rrPending = make([][]pendingTenure, g.Nodes)
		b.rrLast = g.Nodes - 1 // node 0 has first priority
	}
	return b
}

// Kernel returns the kernel the bus is attached to.
func (b *Bus) Kernel() *sim.Kernel { return b.k }

// ResetStats zeroes tenure counts, waits and utilization; subsequent
// figures cover only the window after the reset.
func (b *Bus) ResetStats() {
	b.tenures = [numTenures]uint64{}
	b.waitSum = 0
	b.grants = 0
	b.res.ResetStats()
}

// Transact arbitrates for the bus, holds it for the tenure, and then
// runs done. For Request tenures, snoop (if non-nil) fires at every
// node other than src at the grant instant — the address phase is
// broadcast. Arbitration is FIFO, a fair stand-in for the round-robin
// arbiter of real split-transaction buses.
func (b *Bus) Transact(src int, kind TenureKind, snoop func(node int, at sim.Time), done func(at sim.Time)) {
	if src < 0 || src >= b.Geo.Nodes {
		panic(fmt.Sprintf("bus: bad source node %d", src))
	}
	if b.Geo.Arbiter == RoundRobin {
		b.rrPending[src] = append(b.rrPending[src],
			pendingTenure{src: src, kind: kind, snoop: snoop, done: done, since: b.k.Now()})
		b.rrTryGrant()
		return
	}
	req := b.k.Now()
	b.res.Acquire(func() {
		b.waitSum += b.k.Now() - req
		b.serve(src, kind, snoop, func(at sim.Time) {
			b.res.Release()
			if done != nil {
				done(at)
			}
		})
	})
}

// rrTryGrant grants the bus to the highest-priority pending node in the
// rotation (the node after the last one served).
func (b *Bus) rrTryGrant() {
	if b.rrBusy {
		return
	}
	n := b.Geo.Nodes
	for i := 1; i <= n; i++ {
		node := (b.rrLast + i) % n
		q := b.rrPending[node]
		if len(q) == 0 {
			continue
		}
		t := q[0]
		b.rrPending[node] = q[1:]
		b.rrBusy = true
		b.rrLast = node
		b.waitSum += b.k.Now() - t.since
		b.res.Acquire(func() {}) // pure busy-time accounting
		b.serve(t.src, t.kind, t.snoop, func(at sim.Time) {
			b.res.Release()
			b.rrBusy = false
			if t.done != nil {
				t.done(at)
			}
			b.rrTryGrant()
		})
		return
	}
}

// serve runs one granted tenure: snoop broadcast at grant time, bus
// occupancy for the tenure length, then finish.
func (b *Bus) serve(src int, kind TenureKind, snoop func(node int, at sim.Time), finish func(at sim.Time)) {
	grant := b.k.Now()
	b.grants++
	b.tenures[kind]++
	if b.OnTenure != nil {
		b.OnTenure(kind, grant, grant+b.Geo.TenureTime(kind))
	}
	if kind == Request && snoop != nil && b.Geo.Nodes > 1 {
		// One pooled record chains through the N-1 snooping nodes in
		// index order; the reserved sequence numbers replay the exact
		// FIFO positions the per-node closures used to occupy, so the
		// dispatch order is unchanged.
		s := b.snoopFree
		if s == nil {
			s = &snoopSweep{}
		} else {
			b.snoopFree = s.next
			s.next = nil
		}
		s.b, s.snoop, s.grant, s.src, s.idx = b, snoop, grant, src, 0
		s.node = 0
		if src == 0 {
			s.node = 1
		}
		s.baseSeq = b.k.ReserveSeq(b.Geo.Nodes - 1)
		b.k.AtReserved(grant, s.baseSeq, s)
	}
	b.k.After(b.Geo.TenureTime(kind), func() { finish(b.k.Now()) })
}

// snoopSweep delivers one Request tenure's address broadcast: the same
// pooled record fires once per snooping node, re-arming itself with the
// next reserved FIFO slot until every node other than the source has
// observed the address.
type snoopSweep struct {
	b       *Bus
	snoop   func(node int, at sim.Time)
	grant   sim.Time
	src     int
	node    int // next node to deliver to
	idx     int // reserved-seq offset of that delivery
	baseSeq uint64
	next    *snoopSweep
}

// OnEvent delivers the snoop to the current node and chains to the next.
// On the last delivery the record is recycled before the callback runs,
// so a snoop handler that triggers another bus transaction can reuse it.
func (s *snoopSweep) OnEvent(at sim.Time) {
	node := s.node
	nxt := node + 1
	if nxt == s.src {
		nxt++
	}
	s.idx++
	snoop, grant := s.snoop, s.grant
	if nxt < s.b.Geo.Nodes {
		s.node = nxt
		s.b.k.AtReserved(grant, s.baseSeq+uint64(s.idx), s)
		snoop(node, grant)
		return
	}
	b := s.b
	s.snoop = nil
	s.next = b.snoopFree
	b.snoopFree = s
	snoop(node, grant)
}

// Tenures reports how many tenures of the kind completed or are in
// flight.
func (b *Bus) Tenures(kind TenureKind) uint64 { return b.tenures[kind] }

// MeanArbWait reports the average arbitration wait across all tenures.
func (b *Bus) MeanArbWait() sim.Time {
	if b.grants == 0 {
		return 0
	}
	return b.waitSum / sim.Time(b.grants)
}

// Utilization reports the time-averaged fraction of bus cycles carrying
// a tenure — the network utilization plotted for buses in Figure 6.
func (b *Bus) Utilization() float64 { return b.res.Utilization() }

// QueueLen reports the number of tenures waiting for the bus.
func (b *Bus) QueueLen() int { return b.res.QueueLen() }
