package ring

import (
	"testing"

	"repro/internal/sim"
)

// Steady-state Send — reservation scan, sweep launch, per-hop visits,
// removal callback — must not allocate: sweep records come from the
// ring's pool and calendar entries from the kernel's slab. Guarded as a
// test so the CI bench-smoke step fails on any regression.

func TestRingBroadcastSendZeroAlloc(t *testing.T) {
	k := sim.NewKernel()
	r := New(k, Config{Nodes: 8})
	visited := 0
	visit := func(node int, at sim.Time) { visited++ }
	done := func(at sim.Time) {}
	// Warm the sweep pool, the kernel slab, and a full revolution of the
	// calendar wheel (each Send advances the clock one round trip, so
	// each iteration touches fresh buckets until the wheel wraps).
	for i := 0; i < 1024; i++ {
		r.Send(0, Broadcast, ProbeEven, visit, done)
		k.Run()
	}
	allocs := testing.AllocsPerRun(300, func() {
		r.Send(0, Broadcast, ProbeEven, visit, done)
		k.Run()
	})
	if allocs != 0 {
		t.Fatalf("broadcast Send allocates %.1f objects/op, want 0", allocs)
	}
}

func TestRingPointToPointSendZeroAlloc(t *testing.T) {
	k := sim.NewKernel()
	r := New(k, Config{Nodes: 8})
	done := func(at sim.Time) {}
	// One event per Send and the grab phase drifts across the calendar
	// wheel, so touching every bucket once takes more iterations than
	// the broadcast case.
	for i := 0; i < 5000; i++ {
		r.Send(2, 6, BlockSlot, nil, done)
		k.Run()
	}
	allocs := testing.AllocsPerRun(300, func() {
		r.Send(2, 6, BlockSlot, nil, done)
		k.Run()
	})
	if allocs != 0 {
		t.Fatalf("point-to-point Send allocates %.1f objects/op, want 0", allocs)
	}
}

// An installed OnMessage observer must not reintroduce allocation: the
// obs tracer's track buffers saturate rather than grow, so the hook is
// a plain call into preallocated storage.
func TestRingSendWithObserverZeroAlloc(t *testing.T) {
	k := sim.NewKernel()
	r := New(k, Config{Nodes: 8})
	// Stand-in for an obs track: a fixed-capacity edge log, the same
	// append-until-cap discipline obs.Track.Message uses.
	type edge struct {
		at sim.Time
		d  int32
	}
	edges := make([]edge, 0, 4096)
	r.OnMessage = func(class SlotClass, grab, removal sim.Time) {
		if len(edges)+2 <= cap(edges) {
			edges = append(edges, edge{grab, 1}, edge{removal, -1})
		}
	}
	done := func(at sim.Time) {}
	for i := 0; i < 5000; i++ {
		r.Send(2, 6, BlockSlot, nil, done)
		k.Run()
	}
	allocs := testing.AllocsPerRun(300, func() {
		r.Send(2, 6, BlockSlot, nil, done)
		k.Run()
	})
	if allocs != 0 {
		t.Fatalf("observed Send allocates %.1f objects/op, want 0", allocs)
	}
}

// nopClient discards payload callbacks.
type nopClient struct{ n int }

func (c *nopClient) Deliver(int, sim.Time, Payload) { c.n++ }
func (c *nopClient) Visit(int, sim.Time, Payload)   { c.n++ }
func (c *nopClient) Return(int, sim.Time, Payload)  { c.n++ }

// The payload send the directory engine uses rides the same pooled
// sweep records, with the payload carried by value: a point-to-point
// message and a broadcast sweep must not allocate either.
func TestRingPayloadSendZeroAlloc(t *testing.T) {
	k := sim.NewKernel()
	r := New(k, Config{Nodes: 8})
	r.SetClient(&nopClient{})
	send := func() {
		r.SendPayload(2, 6, BlockSlot, Payload{Kind: 1, X: 2, A: 0x1000})
		r.SendPayload(5, Broadcast, ProbeOdd, Payload{Kind: 2, X: 5, A: 0x1010})
		k.Run()
	}
	for i := 0; i < 5000; i++ {
		send()
	}
	if allocs := testing.AllocsPerRun(300, send); allocs != 0 {
		t.Fatalf("payload SendPayload allocates %.1f objects/op, want 0", allocs)
	}
}

func BenchmarkRingBroadcast(b *testing.B) {
	k := sim.NewKernel()
	r := New(k, Config{Nodes: 16})
	visit := func(node int, at sim.Time) {}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.Send(i%16, Broadcast, ProbeEven, visit, nil)
		k.Run()
	}
}

func BenchmarkRingPointToPoint(b *testing.B) {
	k := sim.NewKernel()
	r := New(k, Config{Nodes: 16})
	done := func(at sim.Time) {}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		src := i % 16
		dst := (src + 5) % 16
		r.Send(src, dst, BlockSlot, nil, done)
		k.Run()
	}
}
