package ring

import (
	"fmt"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/sim"
)

func newRing(t *testing.T, cfg Config) (*sim.Kernel, *Ring) {
	t.Helper()
	k := sim.NewKernel()
	return k, New(k, cfg)
}

func TestNextPassPeriodicity(t *testing.T) {
	_, r := newRing(t, Config{Nodes: 8})
	rtt := r.Geo.RoundTrip()
	first := r.nextPass(0, 3, 0)
	if first < 0 || first >= rtt {
		t.Fatalf("first pass %v outside [0, RTT)", first)
	}
	for k := sim.Time(1); k < 4; k++ {
		if got := r.nextPass(0, 3, first+1+(k-1)*rtt); got != first+k*rtt {
			t.Fatalf("pass %d = %v, want %v", k, got, first+k*rtt)
		}
	}
	// A pass exactly at `from` is returned, not skipped.
	if got := r.nextPass(0, 3, first); got != first {
		t.Fatalf("nextPass at exact time = %v, want %v", got, first)
	}
}

func TestUnloadedBroadcastTakesOneRoundTrip(t *testing.T) {
	k, r := newRing(t, Config{Nodes: 8})
	var grab, rem sim.Time
	var doneAt sim.Time = -1
	k.At(0, func() {
		grab, rem = r.Send(0, Broadcast, ProbeEven, nil, func(at sim.Time) { doneAt = at })
	})
	k.Run()
	if rem-grab != r.Geo.RoundTrip() {
		t.Fatalf("broadcast transit = %v, want RTT %v", rem-grab, r.Geo.RoundTrip())
	}
	if doneAt != rem {
		t.Fatalf("done fired at %v, want %v", doneAt, rem)
	}
	// Unloaded wait is bounded by one round trip (next slot of the class).
	if grab > r.Geo.RoundTrip() {
		t.Fatalf("unloaded grab wait %v exceeds one RTT", grab)
	}
}

func TestPointToPointTransitMatchesDistance(t *testing.T) {
	k, r := newRing(t, Config{Nodes: 8})
	var grab, rem sim.Time
	k.At(0, func() { grab, rem = r.Send(2, 6, BlockSlot, nil, nil) })
	k.Run()
	if want := r.Geo.PropTime(2, 6); rem-grab != want {
		t.Fatalf("p2p transit = %v, want %v", rem-grab, want)
	}
}

func TestBroadcastVisitsEveryOtherNodeInOrder(t *testing.T) {
	k, r := newRing(t, Config{Nodes: 8})
	type visitRec struct {
		node int
		at   sim.Time
	}
	var visits []visitRec
	var grab sim.Time
	k.At(0, func() {
		grab, _ = r.Send(3, Broadcast, ProbeOdd, func(n int, at sim.Time) {
			visits = append(visits, visitRec{n, at})
		}, nil)
	})
	k.Run()
	if len(visits) != 7 {
		t.Fatalf("visited %d nodes, want 7", len(visits))
	}
	want := []int{4, 5, 6, 7, 0, 1, 2}
	for i, v := range visits {
		if v.node != want[i] {
			t.Fatalf("visit order = %v", visits)
		}
		if exp := grab + r.Geo.PropTime(3, v.node); v.at != exp {
			t.Fatalf("visit at node %d at %v, want %v", v.node, v.at, exp)
		}
	}
}

func TestPointToPointVisitsOnlyIntermediates(t *testing.T) {
	k, r := newRing(t, Config{Nodes: 8})
	var visited []int
	k.At(0, func() {
		r.Send(6, 1, ProbeEven, func(n int, _ sim.Time) { visited = append(visited, n) }, nil)
	})
	k.Run()
	want := []int{7, 0} // strictly between 6 and 1 downstream
	if len(visited) != len(want) {
		t.Fatalf("visited = %v, want %v", visited, want)
	}
	for i := range want {
		if visited[i] != want[i] {
			t.Fatalf("visited = %v, want %v", visited, want)
		}
	}
}

func TestContentionSerializesSlotUse(t *testing.T) {
	// One block slot only: force contention with a tiny ring.
	k, r := newRing(t, Config{Nodes: 2}) // 6 stages < 10 → 1 frame
	if r.Geo.SlotsOfClass(BlockSlot) != 1 {
		t.Fatalf("want exactly 1 block slot, have %d", r.Geo.SlotsOfClass(BlockSlot))
	}
	var g1, r1, g2 sim.Time
	k.At(0, func() {
		g1, r1 = r.Send(0, 1, BlockSlot, nil, nil)
		g2, _ = r.Send(0, 1, BlockSlot, nil, nil)
	})
	k.Run()
	if g2 < r1 {
		t.Fatalf("second grab %v before first removal %v", g2, r1)
	}
	if g1 == g2 {
		t.Fatal("both messages grabbed the same slot pass")
	}
}

func TestDistinctClassesDoNotContend(t *testing.T) {
	k, r := newRing(t, Config{Nodes: 2})
	var gp, gb sim.Time
	k.At(0, func() {
		gp, _ = r.Send(0, 1, ProbeEven, nil, nil)
		gb, _ = r.Send(0, 1, BlockSlot, nil, nil)
	})
	k.Run()
	// Both grabs happen within the first round trip: no cross-class wait.
	if gp > r.Geo.RoundTrip() || gb > r.Geo.RoundTrip() {
		t.Fatalf("cross-class contention: grabs at %v and %v", gp, gb)
	}
}

func TestStarvationRuleDefersImmediateReuse(t *testing.T) {
	k, r := newRing(t, Config{Nodes: 2})
	// First broadcast returns to node 0 and is removed there; a send
	// issued exactly at the removal pass must not reuse that pass.
	var rem1, g2 sim.Time
	k.At(0, func() {
		_, rem1 = r.Send(0, Broadcast, ProbeEven, nil, func(at sim.Time) {
			g2, _ = r.Send(0, Broadcast, ProbeEven, nil, nil)
		})
	})
	k.Run()
	if g2 == rem1 {
		t.Fatal("slot reused at the removal pass despite starvation rule")
	}
	if r.StarvationDeferrals(ProbeEven) == 0 {
		t.Fatal("starvation deferral not recorded")
	}
}

func TestStarvationRuleDisabled(t *testing.T) {
	k, r := newRing(t, Config{Nodes: 2, DisableStarvationRule: true})
	var rem1, g2 sim.Time
	k.At(0, func() {
		_, rem1 = r.Send(0, Broadcast, ProbeEven, nil, func(at sim.Time) {
			g2, _ = r.Send(0, Broadcast, ProbeEven, nil, nil)
		})
	})
	k.Run()
	if g2 != rem1 {
		t.Fatalf("with rule disabled, reuse at removal pass should be allowed: g2=%v rem1=%v", g2, rem1)
	}
}

func TestUtilizationAccounting(t *testing.T) {
	k, r := newRing(t, Config{Nodes: 8})
	k.At(0, func() { r.Send(0, Broadcast, ProbeEven, nil, nil) })
	stop := 10 * r.Geo.RoundTrip()
	k.At(stop, func() {})
	k.Run()
	// One probe occupied one of 3 probe-even slots for 1 RTT out of 10.
	got := r.Utilization(ProbeEven)
	want := 1.0 / 30.0
	if got < want*0.5 || got > want*2 {
		t.Fatalf("Utilization = %v, want ≈ %v", got, want)
	}
	if r.Utilization(BlockSlot) != 0 {
		t.Fatal("unused class shows utilization")
	}
	if ov := r.OverallUtilization(); ov <= 0 || ov >= got {
		t.Fatalf("OverallUtilization = %v, want in (0, %v)", ov, got)
	}
}

func TestMessagesAndMeanWaitCounters(t *testing.T) {
	k, r := newRing(t, Config{Nodes: 8})
	k.At(0, func() {
		r.Send(0, 4, BlockSlot, nil, nil)
		r.Send(1, 5, ProbeOdd, nil, nil)
	})
	k.Run()
	if r.Messages(BlockSlot) != 1 || r.Messages(ProbeOdd) != 1 || r.Messages(ProbeEven) != 0 {
		t.Fatal("message counters wrong")
	}
	if r.MeanWait(ProbeEven) != 0 {
		t.Fatal("MeanWait for unused class nonzero")
	}
}

func TestSendValidation(t *testing.T) {
	k, r := newRing(t, Config{Nodes: 4})
	for _, fn := range []func(){
		func() { r.Send(-1, 2, ProbeEven, nil, nil) },
		func() { r.Send(0, 9, ProbeEven, nil, nil) },
		func() { r.Send(2, 2, ProbeEven, nil, nil) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("invalid Send did not panic")
				}
			}()
			fn()
		}()
	}
	_ = k
}

func TestSendInvariantsProperty(t *testing.T) {
	// Property: for any request pattern, grab >= request time, transit
	// equals distance (or RTT), and same-class occupancy intervals at
	// grab time never overlap for the same slot (checked indirectly:
	// utilization never exceeds 1).
	f := func(ops []uint16) bool {
		k := sim.NewKernel()
		r := New(k, Config{Nodes: 8})
		ok := true
		var at sim.Time
		for _, op := range ops {
			at += sim.Time(op%97) * sim.Nanosecond
			src := int(op) % 8
			dst := int(op>>4) % 8
			class := SlotClass(op % 3)
			t0 := at
			k.At(at, func() {
				var g, rem sim.Time
				// A done callback schedules the removal event, so the
				// kernel clock runs through every credited occupancy
				// interval; sampling utilization before a message's
				// removal time would read > 1 for perfectly legal
				// schedules (transit is credited in full at grab).
				noop := func(sim.Time) {}
				if dst == src {
					g, rem = r.Send(src, Broadcast, class, nil, noop)
					if rem-g != r.Geo.RoundTrip() {
						ok = false
					}
				} else {
					g, rem = r.Send(src, dst, class, nil, noop)
					if rem-g != r.Geo.PropTime(src, dst) {
						ok = false
					}
				}
				if g < t0 {
					ok = false
				}
			})
		}
		k.Run()
		for c := 0; c < NumSlotClasses; c++ {
			if r.Utilization(SlotClass(c)) > 1.0000001 {
				ok = false
			}
		}
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestHeavyLoadUtilizationBounded(t *testing.T) {
	// Saturate the probe-even slots from all nodes; utilization must
	// approach but never exceed 1.
	k, r := newRing(t, Config{Nodes: 8})
	var pump func(src int)
	sent := 0
	pump = func(src int) {
		if sent > 500 {
			return
		}
		sent++
		r.Send(src, Broadcast, ProbeEven, nil, func(sim.Time) { pump(src) })
	}
	k.At(0, func() {
		for n := 0; n < 8; n++ {
			pump(n)
		}
	})
	k.Run()
	u := r.Utilization(ProbeEven)
	if u > 1.0000001 {
		t.Fatalf("utilization %v exceeds 1", u)
	}
	if u < 0.5 {
		t.Fatalf("saturating load only reached %v utilization", u)
	}
}

// logClient records payload callbacks.
type logClient struct{ log *[]string }

func (c logClient) Deliver(dst int, at sim.Time, p Payload) {
	*c.log = append(*c.log, fmt.Sprintf("done %d@%d", p.A, at))
}
func (c logClient) Visit(node int, at sim.Time, p Payload) {
	*c.log = append(*c.log, fmt.Sprintf("visit %d n%d@%d", p.A, node, at))
}
func (c logClient) Return(src int, at sim.Time, p Payload) {
	*c.log = append(*c.log, fmt.Sprintf("done %d@%d", p.A, at))
}

// TestSendPayloadMatchesSend pins SendPayload to Send's calendar: the
// same traffic, sent once with closures (a visit callback for
// broadcasts only) and once as payloads, must fire the same callbacks
// at the same instants in the same order, and claim the same number of
// kernel events — which is what keeps engines that moved from closures
// to payloads byte-identical.
func TestSendPayloadMatchesSend(t *testing.T) {
	type msg struct {
		at       sim.Time
		src, dst int
		class    SlotClass
	}
	var plan []msg
	for i := 0; i < 60; i++ {
		dst := (i*5 + 3) % 8
		if i%4 == 0 || dst == i%8 {
			dst = Broadcast
		}
		plan = append(plan, msg{sim.Time(i/3) * 7 * sim.Nanosecond, i % 8, dst, SlotClass(i % NumSlotClasses)})
	}
	run := func(payload bool) ([]string, uint64) {
		var log []string
		k := sim.NewKernel()
		r := New(k, Config{Nodes: 8})
		r.SetClient(logClient{&log})
		for i, m := range plan {
			i, m := i, m
			k.At(m.at, func() {
				if payload {
					r.SendPayload(m.src, m.dst, m.class, Payload{A: uint64(i)})
					return
				}
				var visit func(int, sim.Time)
				if m.dst == Broadcast {
					visit = func(node int, at sim.Time) { logClient{&log}.Visit(node, at, Payload{A: uint64(i)}) }
				}
				r.Send(m.src, m.dst, m.class, visit, func(at sim.Time) {
					logClient{&log}.Deliver(m.dst, at, Payload{A: uint64(i)})
				})
			})
		}
		k.Run()
		return log, k.Fired()
	}
	closures, nc := run(false)
	payloads, np := run(true)
	if !reflect.DeepEqual(closures, payloads) || nc != np {
		t.Fatalf("payload sends diverge from closure sends (%d vs %d events)", np, nc)
	}
}
