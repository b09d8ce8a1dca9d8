package bussnoop

import (
	"testing"

	"repro/internal/bus"
	"repro/internal/cache"
	"repro/internal/coherence"
	"repro/internal/memory"
	"repro/internal/node"
	"repro/internal/sim"
)

// machine returns the n nodes of a whole machine with the paper's
// caches and a seeded random page placement.
func machine(k *sim.Kernel, n int, seed uint64) *node.Set {
	return node.New(k, memory.NewHomeMap(n, 4096, sim.NewRand(seed)), cache.Config{}, 0, n)
}

func testEngine(t *testing.T) (*sim.Kernel, *Engine) {
	t.Helper()
	k := sim.NewKernel()
	b := bus.New(k, bus.Config{Nodes: 4}) // 50 MHz, 64-bit
	return k, New(b, machine(k, 4, 1))
}

func access(k *sim.Kernel, e *Engine, node int, addr uint64, write bool) (coherence.Result, sim.Time) {
	var res coherence.Result
	var lat sim.Time = -1
	start := k.Now()
	e.Access(node, addr, write, func(at sim.Time, r coherence.Result) {
		res = r
		lat = at - start
	})
	k.Run()
	if lat < 0 {
		panic("access never completed")
	}
	return res, lat
}

func TestHit(t *testing.T) {
	k, e := testEngine(t)
	e.Home.Place(0x1000, 1)
	access(k, e, 0, 0x1000, false)
	res, lat := access(k, e, 0, 0x1000, false)
	if !res.Hit || lat != 0 {
		t.Fatalf("res=%+v lat=%v, want immediate hit", res, lat)
	}
}

func TestRemoteCleanMissCostsSixCyclesPlusMemory(t *testing.T) {
	k, e := testEngine(t)
	e.Home.Place(0x1000, 2)
	res, lat := access(k, e, 0, 0x1000, false)
	if res.Txn != coherence.ReadMissClean || res.Local {
		t.Fatalf("res = %+v, want remote clean miss", res)
	}
	// Unloaded: request (2 cy) + memory (140) + response (4 cy); 20 ns
	// cycles.
	want := 2*20*sim.Nanosecond + memory.BankTime + 4*20*sim.Nanosecond
	if lat != want {
		t.Fatalf("latency = %v, want %v", lat, want)
	}
}

func TestLocalCleanReadMissSkipsBus(t *testing.T) {
	k, e := testEngine(t)
	e.Home.Place(0x2000, 3)
	res, lat := access(k, e, 3, 0x2000, false)
	if !res.Local {
		t.Fatalf("res = %+v, want local", res)
	}
	if lat != memory.BankTime {
		t.Fatalf("latency = %v, want 140ns", lat)
	}
	if e.Bus().Tenures(bus.Request) != 0 {
		t.Fatal("local read miss used the bus")
	}
}

func TestWriteMissInvalidatesSnoopers(t *testing.T) {
	k, e := testEngine(t)
	e.Home.Place(0x3000, 1)
	access(k, e, 0, 0x3000, false)
	access(k, e, 2, 0x3000, false)
	res, _ := access(k, e, 3, 0x3000, true)
	if res.Txn != coherence.WriteMissClean {
		t.Fatalf("txn = %v, want write-miss-clean", res.Txn)
	}
	for _, n := range []int{0, 2} {
		if e.Caches[n].State(0x3000) != coherence.Invalid {
			t.Fatalf("sharer %d survived write miss", n)
		}
	}
	if e.Caches[3].State(0x3000) != coherence.WriteExclusive {
		t.Fatal("writer not WE")
	}
}

func TestDirtyMissSuppliedByOwner(t *testing.T) {
	k, e := testEngine(t)
	e.Home.Place(0x4000, 1)
	access(k, e, 2, 0x4000, true)
	res, lat := access(k, e, 0, 0x4000, false)
	if res.Txn != coherence.ReadMissDirty {
		t.Fatalf("txn = %v, want read-miss-dirty", res.Txn)
	}
	if e.Caches[2].State(0x4000) != coherence.ReadShared {
		t.Fatal("owner did not downgrade")
	}
	// Cache supply replaces the memory access; same unloaded total.
	want := 2*20*sim.Nanosecond + node.CacheSupplyTime + 4*20*sim.Nanosecond
	if lat != want {
		t.Fatalf("latency = %v, want %v", lat, want)
	}
}

func TestUpgradeCompletesAtRequestTenure(t *testing.T) {
	k, e := testEngine(t)
	e.Home.Place(0x5000, 1)
	access(k, e, 0, 0x5000, false)
	access(k, e, 2, 0x5000, false)
	res, lat := access(k, e, 0, 0x5000, true)
	if res.Txn != coherence.Invalidation {
		t.Fatalf("txn = %v, want invalidation", res.Txn)
	}
	if lat != 2*20*sim.Nanosecond {
		t.Fatalf("upgrade latency = %v, want one request tenure (40ns)", lat)
	}
	if e.Caches[2].State(0x5000) != coherence.Invalid {
		t.Fatal("sharer survived upgrade")
	}
}

func TestDirtyEvictionUsesWriteBackTenure(t *testing.T) {
	k, e := testEngine(t)
	const a, b = 0x1_0000_0000, 0x1_0002_0000
	e.Home.Place(a, 1)
	e.Home.Place(b, 1)
	access(k, e, 0, a, true)
	access(k, e, 0, b, false)
	k.Run()
	if e.WriteBacksOf(0) != 1 {
		t.Fatalf("WriteBacks = %d, want 1", e.WriteBacksOf(0))
	}
	if e.Bus().Tenures(bus.WriteBack) != 1 {
		t.Fatalf("WriteBack tenures = %d, want 1", e.Bus().Tenures(bus.WriteBack))
	}
	res, _ := access(k, e, 2, a, false)
	if res.Txn != coherence.ReadMissClean {
		t.Fatalf("read after write-back = %+v, want clean miss", res)
	}
}

func TestBusContentionSerializesMisses(t *testing.T) {
	k, e := testEngine(t)
	e.Home.Place(0x6000, 1)
	e.Home.Place(0x7000, 1)
	var done []sim.Time
	k.At(0, func() {
		e.Access(0, 0x6000, false, func(at sim.Time, _ coherence.Result) { done = append(done, at) })
		e.Access(2, 0x7000, false, func(at sim.Time, _ coherence.Result) { done = append(done, at) })
	})
	k.Run()
	if len(done) != 2 {
		t.Fatalf("completions = %d, want 2", len(done))
	}
	if done[1] == done[0] {
		t.Fatal("contending misses completed simultaneously")
	}
	if u := e.Bus().Utilization(); u <= 0 {
		t.Fatal("bus shows no utilization")
	}
}

func TestConsistencyUnderRandomTraffic(t *testing.T) {
	k := sim.NewKernel()
	b := bus.New(k, bus.Config{Nodes: 8})
	e := New(b, machine(k, 8, 5))
	rng := sim.NewRand(77)
	blocks := []uint64{0x1000, 0x2000, 0x3000, 0x4000}
	for i := 0; i < 300; i++ {
		node := rng.Intn(8)
		blk := blocks[rng.Intn(len(blocks))]
		write := rng.Bool(0.4)
		e.Access(node, blk, write, func(sim.Time, coherence.Result) {})
		k.Run()
		for _, blk := range blocks {
			writers, holders := 0, 0
			for n := 0; n < 8; n++ {
				switch e.Caches[n].State(blk) {
				case coherence.WriteExclusive:
					writers++
					holders++
				case coherence.ReadShared:
					holders++
				}
			}
			if writers > 1 {
				t.Fatalf("block %#x has %d writers", blk, writers)
			}
			if writers == 1 && holders > 1 {
				t.Fatalf("block %#x: WE coexists with other copies", blk)
			}
		}
	}
}
