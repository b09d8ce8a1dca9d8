package hier

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

// testEngine builds a 2-cluster × 4-node machine.
func testEngine(t *testing.T) (*sim.Kernel, *Engine) {
	t.Helper()
	k := sim.NewKernel()
	return k, New(machine(k, 8, 1), Options{Clusters: 2})
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

func TestConstructionValidation(t *testing.T) {
	k := sim.NewKernel()
	for _, fn := range []func(){
		func() { New(machine(k, 8, 0), Options{Clusters: 1}) },
		func() { New(machine(k, 9, 0), Options{Clusters: 2}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("invalid construction did not panic")
				}
			}()
			fn()
		}()
	}
}

func TestTopology(t *testing.T) {
	_, e := testEngine(t)
	if e.Clusters() != 2 {
		t.Fatalf("Clusters() = %d, want 2", e.Clusters())
	}
	if e.cluster(5) != 1 || e.local(5) != 1 {
		t.Fatalf("node 5 maps to cluster %d local %d, want 1/1", e.cluster(5), e.local(5))
	}
	// Local rings carry one extra interface: the IRI.
	if got := e.LocalRing(0).Geo.Nodes; got != 5 {
		t.Fatalf("local ring has %d interfaces, want 5 (4 nodes + IRI)", got)
	}
	if got := e.GlobalRing().Geo.Nodes; got != 2 {
		t.Fatalf("global ring has %d interfaces, want 2", got)
	}
	// A small local ring is much shorter than a flat 8-node ring.
	flat := ring.NewGeometry(ring.Config{Nodes: 8})
	if e.LocalRing(0).Geo.RoundTrip() >= flat.RoundTrip() {
		t.Fatal("local ring round trip should beat the flat ring's")
	}
}

func TestLocalCleanMissStaysLocal(t *testing.T) {
	k, e := testEngine(t)
	e.Home.Place(0x1000, 0)
	res, lat := access(k, e, 0, 0x1000, false)
	if !res.Local || res.Txn != coherence.ReadMissClean {
		t.Fatalf("res = %+v, want local clean miss", res)
	}
	if lat != memory.BankTime {
		t.Fatalf("latency = %v, want 140ns", lat)
	}
	if e.GlobalTxns != 0 {
		t.Fatal("local miss crossed the global ring")
	}
}

func TestIntraClusterMissUsesLocalRingOnly(t *testing.T) {
	k, e := testEngine(t)
	e.Home.Place(0x2000, 2) // cluster 0
	res, _ := access(k, e, 0, 0x2000, false)
	if res.Traversals != 1 {
		t.Fatalf("traversals = %d, want 1 (local only)", res.Traversals)
	}
	if e.GlobalTxns != 0 {
		t.Fatal("intra-cluster miss used the global ring")
	}
	if e.GlobalRing().Messages(ring.ProbeEven)+e.GlobalRing().Messages(ring.ProbeOdd)+
		e.GlobalRing().Messages(ring.BlockSlot) != 0 {
		t.Fatal("messages appeared on the global ring")
	}
}

func TestInterClusterMissCrossesGlobalRing(t *testing.T) {
	k, e := testEngine(t)
	e.Home.Place(0x3000, 6) // cluster 1
	res, lat := access(k, e, 0, 0x3000, false)
	if res.Traversals != 2 {
		t.Fatalf("traversals = %d, want 2 (global involved)", res.Traversals)
	}
	if e.GlobalTxns != 1 {
		t.Fatalf("GlobalTxns = %d, want 1", e.GlobalTxns)
	}
	if e.GlobalRing().Messages(ring.BlockSlot) == 0 {
		t.Fatal("no block message crossed the global ring")
	}
	// Inter-cluster costs more than intra-cluster.
	k2, e2 := testEngine(t)
	e2.Home.Place(0x3000, 2)
	_, latIntra := access(k2, e2, 0, 0x3000, false)
	if lat <= latIntra {
		t.Fatalf("inter-cluster latency %v should exceed intra-cluster %v", lat, latIntra)
	}
}

func TestDirtySupplyAcrossClusters(t *testing.T) {
	k, e := testEngine(t)
	e.Home.Place(0x4000, 1)
	access(k, e, 5, 0x4000, true) // cluster 1 takes it dirty
	res, _ := access(k, e, 0, 0x4000, false)
	if res.Txn != coherence.ReadMissDirty {
		t.Fatalf("txn = %v, want read-miss-dirty", res.Txn)
	}
	if e.Caches[5].State(0x4000) != coherence.ReadShared {
		t.Fatal("remote owner did not downgrade")
	}
	if e.Caches[0].State(0x4000) != coherence.ReadShared {
		t.Fatal("reader did not get RS")
	}
}

func TestWriteInvalidatesAcrossClusters(t *testing.T) {
	k, e := testEngine(t)
	e.Home.Place(0x5000, 1)
	access(k, e, 0, 0x5000, false) // cluster 0 sharer
	access(k, e, 5, 0x5000, false) // cluster 1 sharer
	access(k, e, 7, 0x5000, false) // cluster 1 sharer
	res, _ := access(k, e, 1, 0x5000, true)
	if res.Txn != coherence.WriteMissClean || res.Traversals != 2 {
		t.Fatalf("res = %+v, want 2-traversal write miss", res)
	}
	for _, n := range []int{0, 5, 7} {
		if e.Caches[n].State(0x5000) != coherence.Invalid {
			t.Fatalf("sharer %d survived cross-cluster write", n)
		}
	}
	if e.Caches[1].State(0x5000) != coherence.WriteExclusive {
		t.Fatal("writer not WE")
	}
}

func TestWriteWithOnlyLocalSharersStaysLocal(t *testing.T) {
	k, e := testEngine(t)
	e.Home.Place(0x6000, 1) // cluster 0
	access(k, e, 0, 0x6000, false)
	access(k, e, 2, 0x6000, false)
	before := e.GlobalTxns
	res, _ := access(k, e, 3, 0x6000, true)
	if res.Traversals != 1 {
		t.Fatalf("traversals = %d, want 1 — the IRI summary shows no remote copies", res.Traversals)
	}
	if e.GlobalTxns != before {
		t.Fatal("cluster-contained write used the global ring")
	}
	for _, n := range []int{0, 2} {
		if e.Caches[n].State(0x6000) != coherence.Invalid {
			t.Fatalf("local sharer %d survived", n)
		}
	}
}

func TestUpgradeAcrossClusters(t *testing.T) {
	k, e := testEngine(t)
	e.Home.Place(0x7000, 1)
	access(k, e, 0, 0x7000, false)
	access(k, e, 6, 0x7000, false)
	res, _ := access(k, e, 0, 0x7000, true)
	if res.Txn != coherence.Invalidation || res.Traversals != 2 {
		t.Fatalf("res = %+v, want 2-traversal invalidation", res)
	}
	if e.Caches[6].State(0x7000) != coherence.Invalid {
		t.Fatal("remote sharer survived upgrade")
	}
	if e.Caches[0].State(0x7000) != coherence.WriteExclusive {
		t.Fatal("upgrader not WE")
	}
}

func TestSummaryTracksCopies(t *testing.T) {
	k, e := testEngine(t)
	e.Home.Place(0x8000, 1)
	access(k, e, 0, 0x8000, false)
	access(k, e, 5, 0x8000, false)
	m := e.metaFor(e.Caches[0].BlockAddr(0x8000))
	if m.copies[0] != 1 || m.copies[1] != 1 {
		t.Fatalf("copies = %v, want [1 1]", m.copies)
	}
	access(k, e, 4, 0x8000, true) // write from cluster 1 purges all
	if m.copies[0] != 0 || m.copies[1] != 1 {
		t.Fatalf("copies after write = %v, want [0 1]", m.copies)
	}
}

func TestDirtyEvictionWritesBackAcrossClusters(t *testing.T) {
	k, e := testEngine(t)
	const a, b = 0x1_0000_0000, 0x1_0002_0000
	e.Home.Place(a, 6) // remote home
	e.Home.Place(b, 6)
	access(k, e, 0, a, true)
	access(k, e, 0, b, false) // evicts dirty a
	k.Run()
	if e.WriteBacksOf(0) != 1 {
		t.Fatalf("WriteBacks = %d, want 1", e.WriteBacksOf(0))
	}
	res, _ := access(k, e, 1, a, false)
	if res.Txn != coherence.ReadMissClean {
		t.Fatalf("post-write-back read = %+v, want clean miss", res)
	}
}

func TestConsistencyUnderRandomTraffic(t *testing.T) {
	k := sim.NewKernel()
	e := New(machine(k, 16, 3), Options{Clusters: 4})
	rng := sim.NewRand(55)
	blocks := []uint64{0x1000, 0x2000, 0x3000, 0x4000}
	for i := 0; i < 400; i++ {
		node := rng.Intn(16)
		blk := blocks[rng.Intn(len(blocks))]
		write := rng.Bool(0.4)
		e.Access(node, blk, write, func(sim.Time, coherence.Result) {})
		k.Run()
		for _, b := range blocks {
			writers := 0
			perCluster := make([]int, 4)
			for n := 0; n < 16; n++ {
				st := e.Caches[n].State(b)
				if st == coherence.WriteExclusive {
					writers++
				}
				if st != coherence.Invalid {
					perCluster[n/4]++
				}
			}
			if writers > 1 {
				t.Fatalf("block %#x has %d writers", b, writers)
			}
			m := e.metaFor(b)
			for c := range perCluster {
				if m.copies[c] != perCluster[c] {
					t.Fatalf("block %#x cluster %d: summary %d vs actual %d",
						b, c, m.copies[c], perCluster[c])
				}
			}
		}
	}
}

func TestNetworkUtilizationAggregates(t *testing.T) {
	k, e := testEngine(t)
	e.Home.Place(0x9000, 6)
	access(k, e, 0, 0x9000, false)
	if u := e.NetworkUtilization(); u <= 0 || u > 1 {
		t.Fatalf("NetworkUtilization = %v", u)
	}
	e.ResetNetStats()
	k.At(k.Now()+1000*sim.Nanosecond, func() {})
	k.Run()
	if u := e.NetworkUtilization(); u > 0.01 {
		t.Fatalf("utilization after reset = %v, want ~0", u)
	}
}
