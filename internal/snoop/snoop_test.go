package snoop

import (
	"testing"

	"repro/internal/cache"
	"repro/internal/coherence"
	"repro/internal/memory"
	"repro/internal/node"
	"repro/internal/ring"
	"repro/internal/sim"
)

// machine returns the n nodes of a whole machine with the paper's
// caches and a seeded random page placement.
func machine(k *sim.Kernel, n int, seed uint64) *node.Set {
	return node.New(k, memory.NewHomeMap(n, 4096, sim.NewRand(seed)), cache.Config{}, 0, n)
}

// testEngine builds a 4-node engine with a fixed home for the probed
// addresses.
func testEngine(t *testing.T) (*sim.Kernel, *Engine) {
	t.Helper()
	k := sim.NewKernel()
	r := ring.New(k, ring.Config{Nodes: 4})
	e := New(r, machine(k, 4, 1), nil)
	return k, e
}

// access runs a single access to completion and returns its result and
// latency.
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

func TestHitCompletesImmediately(t *testing.T) {
	k, e := testEngine(t)
	e.Home.Place(0x1000, 1)
	access(k, e, 0, 0x1000, false) // fill
	res, lat := access(k, e, 0, 0x1000, false)
	if !res.Hit {
		t.Fatalf("second read = %+v, want hit", res)
	}
	if lat != 0 {
		t.Fatalf("hit latency = %v, want 0", lat)
	}
}

func TestLocalCleanReadMiss(t *testing.T) {
	k, e := testEngine(t)
	e.Home.Place(0x1000, 2)
	res, lat := access(k, e, 2, 0x1000, false)
	if res.Hit || !res.Local || res.Txn != coherence.ReadMissClean {
		t.Fatalf("result = %+v, want local clean read miss", res)
	}
	if lat != memory.BankTime {
		t.Fatalf("local miss latency = %v, want 140ns", lat)
	}
	if e.Ring().Messages(ring.ProbeEven)+e.Ring().Messages(ring.ProbeOdd) != 0 {
		t.Fatal("local miss sent ring probes")
	}
}

func TestRemoteCleanReadMissLatencyIsUMA(t *testing.T) {
	// Probe travels dist(n,h), block travels dist(h,n): the sum is one
	// full circumference for every requester — the paper's UMA claim.
	for _, requester := range []int{0, 1, 3} {
		k, e := testEngine(t)
		e.Home.Place(0x1000, 2)
		res, lat := access(k, e, requester, 0x1000, false)
		if res.Txn != coherence.ReadMissClean || res.Local {
			t.Fatalf("node %d: result = %+v, want remote clean read miss", requester, res)
		}
		rtt := e.Ring().Geo.RoundTrip()
		// latency = probe slot wait + RTT (probe to home + block back)
		// + bank time + block slot wait. Slot waits are < RTT each.
		min := rtt + memory.BankTime
		max := min + 2*rtt
		if lat < min || lat > max {
			t.Fatalf("node %d: latency %v outside [%v, %v]", requester, lat, min, max)
		}
		if res.Traversals != 1 {
			t.Fatalf("node %d: traversals = %d, want 1", requester, res.Traversals)
		}
	}
}

func TestReadMissOnDirtyBlock(t *testing.T) {
	k, e := testEngine(t)
	e.Home.Place(0x1000, 1)
	// Node 3 takes the block write-exclusive.
	res, _ := access(k, e, 3, 0x1000, true)
	if res.Txn != coherence.WriteMissClean {
		t.Fatalf("first write = %+v, want write-miss-clean", res)
	}
	if e.Caches[3].State(0x1000) != coherence.WriteExclusive {
		t.Fatal("writer does not hold WE")
	}
	// Node 0 reads: the dirty owner must supply and downgrade.
	res, _ = access(k, e, 0, 0x1000, false)
	if res.Txn != coherence.ReadMissDirty {
		t.Fatalf("read after remote write = %+v, want read-miss-dirty", res)
	}
	if e.Caches[0].State(0x1000) != coherence.ReadShared {
		t.Fatal("reader did not get RS")
	}
	if e.Caches[3].State(0x1000) != coherence.ReadShared {
		t.Fatal("owner did not downgrade to RS")
	}
	// Dirty bit cleared: a third read is a clean miss.
	res, _ = access(k, e, 2, 0x1000, false)
	if res.Txn != coherence.ReadMissClean {
		t.Fatalf("third read = %+v, want read-miss-clean", res)
	}
}

func TestWriteMissInvalidatesAllSharers(t *testing.T) {
	k, e := testEngine(t)
	e.Home.Place(0x2000, 1)
	access(k, e, 0, 0x2000, false)
	access(k, e, 2, 0x2000, false)
	access(k, e, 3, 0x2000, false)
	res, _ := access(k, e, 1, 0x2000, true) // home writes
	if res.Txn != coherence.WriteMissClean {
		t.Fatalf("write = %+v, want write-miss-clean", res)
	}
	for _, n := range []int{0, 2, 3} {
		if e.Caches[n].State(0x2000) != coherence.Invalid {
			t.Fatalf("node %d still holds a copy after write miss", n)
		}
	}
	if e.Caches[1].State(0x2000) != coherence.WriteExclusive {
		t.Fatal("writer does not hold WE")
	}
}

func TestWriteMissOnDirtyBlock(t *testing.T) {
	k, e := testEngine(t)
	e.Home.Place(0x3000, 0)
	access(k, e, 2, 0x3000, true)
	res, _ := access(k, e, 3, 0x3000, true)
	if res.Txn != coherence.WriteMissDirty {
		t.Fatalf("second write = %+v, want write-miss-dirty", res)
	}
	if e.Caches[2].State(0x3000) != coherence.Invalid {
		t.Fatal("previous owner not invalidated")
	}
	if e.Caches[3].State(0x3000) != coherence.WriteExclusive {
		t.Fatal("new owner not WE")
	}
}

func TestUpgradeTakesOneTraversal(t *testing.T) {
	k, e := testEngine(t)
	e.Home.Place(0x4000, 1)
	access(k, e, 0, 0x4000, false)
	access(k, e, 2, 0x4000, false)
	start := k.Now()
	var res coherence.Result
	var lat sim.Time
	e.Access(0, 0x4000, true, func(at sim.Time, r coherence.Result) {
		res, lat = r, at-start
	})
	k.Run()
	if res.Txn != coherence.Invalidation {
		t.Fatalf("upgrade = %+v, want invalidation", res)
	}
	rtt := e.Ring().Geo.RoundTrip()
	if lat < rtt || lat > 2*rtt {
		t.Fatalf("upgrade latency = %v, want RTT + slot wait (≤ %v)", lat, 2*rtt)
	}
	if e.Caches[0].State(0x4000) != coherence.WriteExclusive {
		t.Fatal("upgrader not WE")
	}
	if e.Caches[2].State(0x4000) != coherence.Invalid {
		t.Fatal("sharer not invalidated by upgrade")
	}
}

func TestDirtyEvictionWritesBack(t *testing.T) {
	k, e := testEngine(t)
	// Two blocks that conflict in the 128 KB direct-mapped cache.
	const a, b = 0x1_0000_0000, 0x1_0002_0000
	e.Home.Place(a, 1)
	e.Home.Place(b, 1)
	access(k, e, 0, a, true) // dirty
	access(k, e, 0, b, false)
	if e.WriteBacksOf(0) != 1 {
		t.Fatalf("WriteBacks = %d, want 1 after dirty eviction", e.WriteBacksOf(0))
	}
	// After the write-back lands, the block is clean at home again.
	res, _ := access(k, e, 2, a, false)
	if res.Txn != coherence.ReadMissClean {
		t.Fatalf("read after write-back = %+v, want clean miss", res)
	}
}

func TestLocalWriteMissStillProbes(t *testing.T) {
	// A write miss homed at the requester must still broadcast to
	// invalidate remote RS copies.
	k, e := testEngine(t)
	e.Home.Place(0x5000, 2)
	access(k, e, 0, 0x5000, false) // remote sharer
	res, _ := access(k, e, 2, 0x5000, true)
	if res.Txn != coherence.WriteMissClean || res.Local {
		t.Fatalf("home write = %+v, want non-local write-miss-clean", res)
	}
	if e.Caches[0].State(0x5000) != coherence.Invalid {
		t.Fatal("remote sharer survived home-node write miss")
	}
}

func TestProbesUseAddressParitySlots(t *testing.T) {
	k, e := testEngine(t)
	e.Home.Place(0x1000, 1) // block 0x1000/16 = even
	e.Home.Place(0x1010, 1) // odd
	access(k, e, 0, 0x1000, false)
	if e.Ring().Messages(ring.ProbeEven) != 1 || e.Ring().Messages(ring.ProbeOdd) != 0 {
		t.Fatal("even block did not use the even probe slot")
	}
	access(k, e, 0, 0x1010, false)
	if e.Ring().Messages(ring.ProbeOdd) != 1 {
		t.Fatal("odd block did not use the odd probe slot")
	}
}

func TestManyNodesManyBlocksConsistency(t *testing.T) {
	// Drive a pseudo-random access pattern and verify the single-writer
	// invariant after every completed transaction set.
	k := sim.NewKernel()
	r := ring.New(k, ring.Config{Nodes: 8})
	e := New(r, machine(k, 8, 3), nil)
	rng := sim.NewRand(99)
	blocks := []uint64{0x1000, 0x2000, 0x3000, 0x4000}
	outstanding := 0
	for i := 0; i < 200; i++ {
		node := rng.Intn(8)
		blk := blocks[rng.Intn(len(blocks))]
		write := rng.Bool(0.4)
		outstanding++
		// Serialize: one access at a time keeps the check exact.
		e.Access(node, blk, write, func(sim.Time, coherence.Result) { outstanding-- })
		k.Run()
		if outstanding != 0 {
			t.Fatal("access did not complete")
		}
		for _, b := range blocks {
			writers := 0
			holders := 0
			for n := 0; n < 8; n++ {
				switch e.Caches[n].State(b) {
				case coherence.WriteExclusive:
					writers++
					holders++
				case coherence.ReadShared:
					holders++
				}
			}
			if writers > 1 {
				t.Fatalf("block %#x has %d writers", b, writers)
			}
			if writers == 1 && holders > 1 {
				t.Fatalf("block %#x: WE copy coexists with other copies", b)
			}
		}
	}
}
