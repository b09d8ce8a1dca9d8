// Package ring models the unidirectional slotted ring of the paper
// (Section 2): a circular pipeline of latches advancing one stage per
// ring clock, with the bandwidth divided into marked message slots
// grouped into frames. A frame carries one probe slot for even-address
// blocks, one probe slot for odd-address blocks, and one block slot,
// which paces probes to the snooper's dual-directory banks (Table 3).
//
// Slot motion is modeled exactly: a slot's head passes node n at
// deterministic times derived from the ring geometry, so message
// latencies, slot-acquisition waits and the anti-starvation rule are
// all slot-accurate without simulating every latch transfer.
//
// The package also provides register-insertion and token-ring access
// control variants used by the related-work ablation (Section 5).
package ring

import (
	"errors"
	"fmt"

	"repro/internal/sim"
)

// SlotClass identifies one of the three slot kinds in a frame.
type SlotClass uint8

const (
	// ProbeEven carries probes for even-address blocks.
	ProbeEven SlotClass = iota
	// ProbeOdd carries probes for odd-address blocks.
	ProbeOdd
	// BlockSlot carries a header plus one cache block.
	BlockSlot
	numSlotClasses
)

// NumSlotClasses is the number of distinct slot classes.
const NumSlotClasses = int(numSlotClasses)

// String names the slot class.
func (c SlotClass) String() string {
	switch c {
	case ProbeEven:
		return "probe-even"
	case ProbeOdd:
		return "probe-odd"
	case BlockSlot:
		return "block"
	default:
		return fmt.Sprintf("SlotClass(%d)", uint8(c))
	}
}

// Config describes a slotted ring.
type Config struct {
	// Nodes is the number of processing elements on the ring.
	Nodes int
	// ClockPS is the stage (latch-to-latch) time; the paper's default
	// is 2 ns (500 MHz).
	ClockPS sim.Time
	// WidthBits is the link/data-path width; default 32.
	WidthBits int
	// BlockBytes is the cache block size; default 16.
	BlockBytes int
	// StagesPerNode is the latch count per ring interface; the paper
	// uses a minimum of 3.
	StagesPerNode int
	// ProbePairsPerBlockSlot is the number of (even, odd) probe slot
	// pairs per block slot in a frame. The paper's mix is 1 pair
	// (i.e. 2 probe slots) per block slot; the slot-mix ablation
	// varies this.
	ProbePairsPerBlockSlot int
	// DisableStarvationRule turns off the rule that a node may not
	// reuse a slot at the very pass on which it removed a message
	// (the paper reports the rule costs nothing; the ablation checks).
	DisableStarvationRule bool
	// Segments, when >= 2, selects the segmented ring variant (SegRing):
	// the ring is partitioned into this many contiguous node segments
	// with per-segment injection and boundary-link serialization, the
	// shardable model whose boundary-link latency is the parallel
	// kernel's lookahead. Zero is the classic global-slot ring. The
	// segment count is part of the model (it changes arbitration), so
	// it participates in result hashing wherever configs are hashed.
	Segments int
}

// DefaultClock is the paper's 500 MHz ring clock.
const DefaultClock = 2 * sim.Nanosecond

func (c *Config) fill() {
	if c.ClockPS == 0 {
		c.ClockPS = DefaultClock
	}
	if c.WidthBits == 0 {
		c.WidthBits = 32
	}
	if c.BlockBytes == 0 {
		c.BlockBytes = 16
	}
	if c.StagesPerNode == 0 {
		c.StagesPerNode = 3
	}
	if c.ProbePairsPerBlockSlot == 0 {
		c.ProbePairsPerBlockSlot = 1
	}
}

// Validate reports whether the configuration, zero fields taking the
// paper's defaults, lays out as a ring.
func (c Config) Validate() error {
	c.fill()
	if c.Nodes <= 0 {
		return errors.New("ring: need at least one node")
	}
	if c.ClockPS < 0 {
		return fmt.Errorf("ring: negative clock period %v", c.ClockPS)
	}
	if c.WidthBits <= 0 || c.WidthBits%8 != 0 {
		return errors.New("ring: width must be a positive multiple of 8 bits")
	}
	if c.ProbePairsPerBlockSlot < 0 {
		return errors.New("ring: negative probe slot pairs per block slot")
	}
	if c.Segments != 0 {
		if c.Segments < 2 {
			return errors.New("ring: Segments must be 0 (classic) or at least 2")
		}
		if c.Nodes%c.Segments != 0 {
			return fmt.Errorf("ring: %d nodes not divisible into %d segments", c.Nodes, c.Segments)
		}
	}
	if c.BlockBytes*8%c.WidthBits != 0 {
		return errors.New("ring: block size must be a whole number of ring words")
	}
	return nil
}

// Geometry holds the derived slot layout of a ring.
type Geometry struct {
	Config
	// ProbeStages is the length of a probe slot in pipeline stages:
	// ceil(64-bit payload / width).
	ProbeStages int
	// BlockStages is the length of a block slot: a probe-sized header
	// plus the data transfer stages.
	BlockStages int
	// FrameStages is the length of one frame.
	FrameStages int
	// TotalStages is the ring circumference in stages: at least
	// StagesPerNode per node, padded up to a whole number of frames.
	TotalStages int
	// Frames is the number of frames in flight on the ring.
	Frames int
	// slotStart[i] is the stage offset of slot i's head at t=0;
	// slotClass[i] its class. Slots are laid out frame by frame.
	slotStart []int
	slotClass []SlotClass
}

// NewGeometry computes the slot layout for a configuration, applying
// the paper's defaults to zero fields.
func NewGeometry(cfg Config) Geometry {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	cfg.fill()
	g := Geometry{Config: cfg}
	g.ProbeStages = (64 + cfg.WidthBits - 1) / cfg.WidthBits
	g.BlockStages = g.ProbeStages + cfg.BlockBytes*8/cfg.WidthBits
	g.FrameStages = 2*cfg.ProbePairsPerBlockSlot*g.ProbeStages + g.BlockStages
	min := cfg.Nodes * cfg.StagesPerNode
	g.Frames = (min + g.FrameStages - 1) / g.FrameStages
	if g.Frames == 0 {
		g.Frames = 1
	}
	g.TotalStages = g.Frames * g.FrameStages
	for f := 0; f < g.Frames; f++ {
		off := f * g.FrameStages
		for p := 0; p < cfg.ProbePairsPerBlockSlot; p++ {
			g.slotStart = append(g.slotStart, off)
			g.slotClass = append(g.slotClass, ProbeEven)
			off += g.ProbeStages
			g.slotStart = append(g.slotStart, off)
			g.slotClass = append(g.slotClass, ProbeOdd)
			off += g.ProbeStages
		}
		g.slotStart = append(g.slotStart, off)
		g.slotClass = append(g.slotClass, BlockSlot)
	}
	return g
}

// NumSlots returns the total number of slots on the ring.
func (g *Geometry) NumSlots() int { return len(g.slotStart) }

// SlotsOfClass returns how many slots of class c circulate.
func (g *Geometry) SlotsOfClass(c SlotClass) int {
	n := 0
	for _, sc := range g.slotClass {
		if sc == c {
			n++
		}
	}
	return n
}

// NodePos returns the stage position of node n's interface. Padding
// stages are spread evenly, as in a physical layout.
func (g *Geometry) NodePos(n int) int {
	return n * g.TotalStages / g.Nodes
}

// DistStages returns the downstream distance in stages from node a to
// node b (a full circumference when a == b is distinguished by callers
// passing broadcast explicitly).
func (g *Geometry) DistStages(a, b int) int {
	d := g.NodePos(b) - g.NodePos(a)
	if d < 0 {
		d += g.TotalStages
	}
	return d
}

// PropTime returns the propagation time from a to b downstream.
func (g *Geometry) PropTime(a, b int) sim.Time {
	return sim.Time(g.DistStages(a, b)) * g.ClockPS
}

// RoundTrip returns the full ring traversal time — the paper's "pure
// round-trip latency" (60 ns for the 8-node 500 MHz default).
func (g *Geometry) RoundTrip() sim.Time {
	return sim.Time(g.TotalStages) * g.ClockPS
}

// FrameTime returns the time between successive frames passing a point,
// which is also the minimum inter-arrival of probes to one
// dual-directory bank (Table 3's "snooping rate").
func (g *Geometry) FrameTime() sim.Time {
	return sim.Time(g.FrameStages) * g.ClockPS
}

// ProbeClassFor returns the probe slot class serving the given block
// address: even-address blocks use ProbeEven slots.
func (g *Geometry) ProbeClassFor(blockAddr uint64) SlotClass {
	if (blockAddr/uint64(g.BlockBytes))%2 == 0 {
		return ProbeEven
	}
	return ProbeOdd
}

// SlotTime returns the time a slot of class c occupies one point on
// the ring — the message length in stages times the stage clock. It is
// the serialization granularity of the segmented variant's injection
// points and boundary links.
func (g *Geometry) SlotTime(c SlotClass) sim.Time {
	if c == BlockSlot {
		return sim.Time(g.BlockStages) * g.ClockPS
	}
	return sim.Time(g.ProbeStages) * g.ClockPS
}

// SegOf returns the segment owning node n (Segments >= 2 variants).
func (g *Geometry) SegOf(n int) int { return n * g.Segments / g.Nodes }

// SegmentBounds returns segment seg's contiguous node range [lo, hi).
func (g *Geometry) SegmentBounds(seg int) (lo, hi int) {
	return seg * g.Nodes / g.Segments, (seg + 1) * g.Nodes / g.Segments
}

// BoundaryHop returns the latency of segment seg's exit link: the
// propagation time from the segment's last node to the next segment's
// first node. A message crossing the boundary arrives no earlier than
// this after its head clears the exit node, which makes the hop the
// conservative-parallel lookahead of that link.
func (g *Geometry) BoundaryHop(seg int) sim.Time {
	_, hi := g.SegmentBounds(seg)
	return g.PropTime(hi-1, hi%g.Nodes)
}

// MinSegmentHop returns the smallest boundary-link latency over all
// segment boundaries — the widest safe window for a parallel run that
// shards this ring by segment.
func (g *Geometry) MinSegmentHop() sim.Time {
	if g.Segments < 2 {
		return 0
	}
	min := g.BoundaryHop(0)
	for s := 1; s < g.Segments; s++ {
		if h := g.BoundaryHop(s); h < min {
			min = h
		}
	}
	return min
}

// slotLen returns slot i's length in stages.
func (g *Geometry) slotLen(i int) int {
	if g.slotClass[i] == BlockSlot {
		return g.BlockStages
	}
	return g.ProbeStages
}
