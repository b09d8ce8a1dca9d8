package ring

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/sim"
)

// segLog records every client callback a segment observed.
type segLog struct {
	entries []string
}

func (l *segLog) add(tag string, node int, at sim.Time, p Payload) {
	l.entries = append(l.entries, fmt.Sprintf("%s n%d @%d a%d b%d", tag, node, at, p.A, p.B))
}

// chatClient logs callbacks and answers deliveries carrying B > 0 with
// a reply to the original sender — cross-triggered traffic, so the
// identity check covers messages born from boundary arrivals, not just
// preplanned ones.
type chatClient struct {
	sr  *SegRing
	log *segLog
}

func (c *chatClient) Deliver(dst int, at sim.Time, p Payload) {
	c.log.add("deliver", dst, at, p)
	if p.B > 0 {
		c.sr.SendPayload(dst, int(p.X), SlotClass(p.Kind), Payload{
			Kind: p.Kind, X: int32(dst), A: p.A + 1000, B: p.B - 1,
		})
	}
}
func (c *chatClient) Visit(node int, at sim.Time, p Payload) { c.log.add("visit", node, at, p) }
func (c *chatClient) Return(src int, at sim.Time, p Payload) { c.log.add("return", src, at, p) }

// sendPlan schedules one Send at a fixed time on the segment owning
// the source node.
type sendPlan struct {
	sr    *SegRing
	src   int
	dst   int
	class SlotClass
	p     Payload
}

func (s *sendPlan) OnEvent(at sim.Time) { s.sr.SendPayload(s.src, s.dst, s.class, s.p) }

// planTraffic derives a deterministic mixed workload: point-to-point
// probes and blocks, broadcasts, and reply chains, from every node.
func planTraffic(rng *rand.Rand, nodes int) []struct {
	at    sim.Time
	src   int
	dst   int
	class SlotClass
	p     Payload
} {
	var plan []struct {
		at    sim.Time
		src   int
		dst   int
		class SlotClass
		p     Payload
	}
	id := uint64(0)
	for i := 0; i < 4*nodes; i++ {
		src := rng.Intn(nodes)
		dst := rng.Intn(nodes)
		class := SlotClass(rng.Intn(NumSlotClasses))
		if dst == src {
			dst = Broadcast
		}
		replies := uint64(0)
		if dst != Broadcast && rng.Intn(2) == 0 {
			replies = uint64(rng.Intn(3)) // bounce back and forth
		}
		plan = append(plan, struct {
			at    sim.Time
			src   int
			dst   int
			class SlotClass
			p     Payload
		}{
			at:    sim.Time(rng.Intn(300)) * sim.Nanosecond,
			src:   src,
			dst:   dst,
			class: class,
			p:     Payload{Kind: uint8(class), X: int32(src), A: id, B: replies},
		})
		id++
	}
	return plan
}

// runSegmented executes the planned traffic over a segment chain,
// sequentially (parts == 0) or on a ParKernel with parts shards, and
// returns the per-segment callback logs plus total events fired.
func runSegmented(t *testing.T, cfg Config, seed int64, parts int) ([][]string, uint64) {
	t.Helper()
	g := NewGeometry(cfg)
	S := g.Segments
	plan := planTraffic(rand.New(rand.NewSource(seed)), cfg.Nodes)

	var segs []*SegRing
	var kernels []*sim.Kernel
	var pk *sim.ParKernel
	if parts == 0 {
		k := sim.NewKernel()
		segs = NewSegmentedChain(k, cfg)
		kernels = []*sim.Kernel{k}
	} else {
		window := g.MinSegmentHop()
		pk = sim.NewParKernel(parts, window)
		segs = make([]*SegRing, S)
		for s := 0; s < S; s++ {
			segs[s] = NewSegment(pk.Shard(s*parts/S), cfg, s)
		}
		for s := 0; s < S; s++ {
			src, dst := s*parts/S, ((s+1)%S)*parts/S
			next := segs[(s+1)%S]
			if src == dst {
				segs[s].Link(next, pk.Shard(src).AtBoundary)
			} else {
				segs[s].Link(next, func(at sim.Time, seq uint64, h sim.EventHandler) {
					pk.PostAt(src, dst, at, seq, h)
				})
			}
		}
		for s := 0; s < S; s++ {
			kernels = append(kernels, pk.Shard(s*parts/S))
		}
	}

	logs := make([]*segLog, S)
	for s, sr := range segs {
		logs[s] = &segLog{}
		sr.SetClient(&chatClient{sr: sr, log: logs[s]})
	}
	for _, m := range plan {
		sr := segs[g.SegOf(m.src)]
		sr.Kernel().AtEvent(m.at, &sendPlan{sr: sr, src: m.src, dst: m.dst, class: m.class, p: m.p})
	}

	var fired uint64
	if parts == 0 {
		kernels[0].Run()
		fired = kernels[0].Fired()
	} else {
		pk.Run()
		for i := 0; i < parts; i++ {
			fired += pk.Shard(i).Fired()
		}
	}
	out := make([][]string, S)
	for s := range logs {
		out[s] = logs[s].entries
	}
	return out, fired
}

// TestSegRingSequentialParallelIdentical is the randomized
// segment-count cross-check: the same segmented model run on one
// kernel and sharded over a ParKernel must produce identical
// per-segment callback logs and fire the same number of events.
func TestSegRingSequentialParallelIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(1993))
	shapes := []struct{ nodes, segs int }{{8, 2}, {8, 4}, {16, 4}, {16, 8}, {12, 6}}
	for iter := 0; iter < 8; iter++ {
		sh := shapes[rng.Intn(len(shapes))]
		seed := rng.Int63()
		cfg := Config{Nodes: sh.nodes, Segments: sh.segs}
		seqLogs, seqFired := runSegmented(t, cfg, seed, 0)
		for _, parts := range divisorsOf(sh.segs) {
			parLogs, parFired := runSegmented(t, cfg, seed, parts)
			if !reflect.DeepEqual(seqLogs, parLogs) {
				for s := range seqLogs {
					if !reflect.DeepEqual(seqLogs[s], parLogs[s]) {
						t.Fatalf("nodes=%d segs=%d parts=%d seed=%d: segment %d log diverges:\nseq: %v\npar: %v",
							sh.nodes, sh.segs, parts, seed, s, seqLogs[s], parLogs[s])
					}
				}
			}
			if seqFired != parFired {
				t.Fatalf("nodes=%d segs=%d parts=%d seed=%d: events fired %d (seq) != %d (par)",
					sh.nodes, sh.segs, parts, seed, seqFired, parFired)
			}
		}
	}
}

func divisorsOf(n int) []int {
	var d []int
	for i := 2; i <= n; i++ {
		if n%i == 0 {
			d = append(d, i)
		}
	}
	return d
}

// TestSegRingUncontendedSchedule pins the exact uncontended timing:
// departure at t=0, visits at propagation distances, delivery at the
// destination's distance plus accumulated boundary hops — all of which
// are plain PropTime because boundary links add distance, not extra
// serialization, when idle.
func TestSegRingUncontendedSchedule(t *testing.T) {
	cfg := Config{Nodes: 8, Segments: 4}
	k := sim.NewKernel()
	segs := NewSegmentedChain(k, cfg)
	g := segs[0].Geo
	logs := make([]*segLog, len(segs))
	for s, sr := range segs {
		logs[s] = &segLog{}
		sr.SetClient(&chatClient{sr: sr, log: logs[s]})
	}
	// Node 1 -> node 6: crosses three boundaries, visits 2,3,4,5.
	segs[0].SendPayload(1, 6, ProbeEven, Payload{A: 7})
	k.Run()
	var got []string
	for _, l := range logs {
		got = append(got, l.entries...)
	}
	want := []string{
		fmt.Sprintf("visit n2 @%d a7 b0", g.PropTime(1, 2)),
		fmt.Sprintf("visit n3 @%d a7 b0", g.PropTime(1, 3)),
		fmt.Sprintf("visit n4 @%d a7 b0", g.PropTime(1, 4)),
		fmt.Sprintf("visit n5 @%d a7 b0", g.PropTime(1, 5)),
		fmt.Sprintf("deliver n6 @%d a7 b0", g.PropTime(1, 6)),
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("schedule = %v, want %v", got, want)
	}

	// Broadcast from node 3: everyone else observes it, it returns
	// after one full circumference.
	k2 := sim.NewKernel()
	segs2 := NewSegmentedChain(k2, cfg)
	logs2 := make([]*segLog, len(segs2))
	for s, sr := range segs2 {
		logs2[s] = &segLog{}
		sr.SetClient(&chatClient{sr: sr, log: logs2[s]})
	}
	segs2[1].SendPayload(3, Broadcast, BlockSlot, Payload{A: 9})
	k2.Run()
	seen := 0
	for _, l := range logs2 {
		seen += len(l.entries)
	}
	if seen != cfg.Nodes {
		t.Fatalf("broadcast produced %d callbacks, want %d (7 visits + return)", seen, cfg.Nodes)
	}
	last := logs2[1].entries[len(logs2[1].entries)-1]
	wantRet := fmt.Sprintf("return n3 @%d a9 b0", g.RoundTrip())
	if last != wantRet {
		t.Fatalf("broadcast return = %q, want %q", last, wantRet)
	}
}

// TestSegRingInjectionSerializes: two same-class sends from one node
// at the same instant depart one slot time apart.
func TestSegRingInjectionSerializes(t *testing.T) {
	cfg := Config{Nodes: 8, Segments: 2}
	k := sim.NewKernel()
	segs := NewSegmentedChain(k, cfg)
	for _, sr := range segs {
		sr.SetClient(&chatClient{sr: sr, log: &segLog{}})
	}
	d1 := segs[0].SendPayload(0, 2, ProbeEven, Payload{})
	d2 := segs[0].SendPayload(0, 2, ProbeEven, Payload{})
	d3 := segs[0].SendPayload(0, 2, ProbeOdd, Payload{})
	slot := segs[0].Geo.SlotTime(ProbeEven)
	if d1 != 0 || d2 != slot {
		t.Fatalf("same-class departures %d, %d; want 0, %d", d1, d2, slot)
	}
	if d3 != 0 {
		t.Fatalf("cross-class departure %d, want 0 (independent injection points)", d3)
	}
	k.Run()
}
