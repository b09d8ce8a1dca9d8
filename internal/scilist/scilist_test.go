package scilist

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

func testEngine(t *testing.T, nodes int) (*sim.Kernel, *Engine) {
	t.Helper()
	k := sim.NewKernel()
	r := ring.New(k, ring.Config{Nodes: nodes})
	return k, New(r, machine(k, nodes, 1))
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

func TestUncachedMissServedByHome(t *testing.T) {
	k, e := testEngine(t, 8)
	e.Home.Place(0x1000, 3)
	res, _ := access(k, e, 0, 0x1000, false)
	if res.Txn != coherence.ReadMissClean || res.Traversals != 1 {
		t.Fatalf("res = %+v, want 1-traversal clean miss from home", res)
	}
	if e.Directory().Line(0x1000).Head != 0 {
		t.Fatal("requester is not list head")
	}
}

func TestCachedCleanMissForwardedToHead(t *testing.T) {
	// Full map would serve this from the home in one traversal; the
	// linked list forwards to the head, whose position can force a
	// second traversal — the Table 1 difference.
	k, e := testEngine(t, 8)
	e.Home.Place(0x2000, 2)
	access(k, e, 4, 0x2000, false) // head = 4 (on 2→0 arc? 4 is after 2)
	res, _ := access(k, e, 0, 0x2000, false)
	// Path 0→2→4→0 closes in exactly one loop (4 lies on the 2→0 arc).
	if res.Traversals != 1 {
		t.Fatalf("traversals = %d, want 1 for well-placed head", res.Traversals)
	}
	// Now a head that conflicts with the ring direction: requester 6,
	// home 2, head 0 is not on the 2→6 arc → two traversals.
	k2, e2 := testEngine(t, 8)
	e2.Home.Place(0x2000, 2)
	access(k2, e2, 0, 0x2000, false)
	res2, _ := access(k2, e2, 6, 0x2000, false)
	if res2.Traversals != 2 {
		t.Fatalf("traversals = %d, want 2 for badly-placed head", res2.Traversals)
	}
	if res2.Txn != coherence.ReadMissClean {
		t.Fatalf("txn = %v, want read-miss-clean (head had RS copy)", res2.Txn)
	}
}

func TestNewReaderBecomesHead(t *testing.T) {
	k, e := testEngine(t, 8)
	e.Home.Place(0x3000, 1)
	access(k, e, 3, 0x3000, false)
	access(k, e, 5, 0x3000, false)
	ln := e.Directory().Line(0x3000)
	if ln.Head != 5 {
		t.Fatalf("head = %d, want most recent reader 5", ln.Head)
	}
	lst := ln.List()
	if len(lst) != 2 || lst[0] != 5 || lst[1] != 3 {
		t.Fatalf("list = %v, want [5 3]", lst)
	}
}

func TestDirtyMissSuppliedByHeadAndDowngraded(t *testing.T) {
	k, e := testEngine(t, 8)
	e.Home.Place(0x4000, 1)
	access(k, e, 5, 0x4000, true) // node 5 dirty owner (head)
	res, _ := access(k, e, 0, 0x4000, false)
	if res.Txn != coherence.ReadMissDirty {
		t.Fatalf("txn = %v, want read-miss-dirty", res.Txn)
	}
	if e.Caches[5].State(0x4000) != coherence.ReadShared {
		t.Fatal("dirty head did not downgrade")
	}
	if e.Directory().Line(0x4000).Dirty {
		t.Fatal("dirty bit survived read")
	}
}

func TestWriteMissPurgesWholeList(t *testing.T) {
	k, e := testEngine(t, 8)
	e.Home.Place(0x5000, 1)
	for _, n := range []int{2, 4, 6} {
		access(k, e, n, 0x5000, false)
	}
	res, _ := access(k, e, 0, 0x5000, true)
	if res.Txn != coherence.WriteMissClean {
		t.Fatalf("txn = %v, want write-miss-clean", res.Txn)
	}
	for _, n := range []int{2, 4, 6} {
		if e.Caches[n].State(0x5000) != coherence.Invalid {
			t.Fatalf("sharer %d survived purge", n)
		}
	}
	ln := e.Directory().Line(0x5000)
	if !ln.Dirty || ln.Owner != 0 {
		t.Fatalf("directory after write: %+v", ln)
	}
	if res.Traversals < 1 {
		t.Fatalf("traversals = %d, want >= 1", res.Traversals)
	}
}

func TestInvalidationTraversalsGrowWithAdverseListOrder(t *testing.T) {
	// Sharers acquired in ascending ring order produce a sharing list
	// in *descending* order (SCI prepends), so the purge walk fights
	// the ring direction: each hop is nearly a full loop. This is the
	// paper's worst case: ~n traversals for n sharers.
	k, e := testEngine(t, 8)
	e.Home.Place(0x6000, 0)
	readers := []int{1, 2, 3, 4, 5}
	for _, n := range readers {
		access(k, e, n, 0x6000, false)
	}
	// List is now [5 4 3 2 1]; node 6 upgrades... node 6 has no copy,
	// so use a write miss, which purges the same list.
	res, _ := access(k, e, 6, 0x6000, true)
	if res.Traversals < 3 {
		t.Fatalf("adverse-order purge took %d traversals, want >= 3", res.Traversals)
	}
}

func TestUpgradeSoleMember(t *testing.T) {
	k, e := testEngine(t, 8)
	e.Home.Place(0x7000, 2)
	access(k, e, 0, 0x7000, false)
	res, _ := access(k, e, 0, 0x7000, true)
	if res.Txn != coherence.Invalidation || res.Traversals != 1 {
		t.Fatalf("res = %+v, want 1-traversal invalidation", res)
	}
	if e.Caches[0].State(0x7000) != coherence.WriteExclusive {
		t.Fatal("upgrader not WE")
	}
}

func TestUpgradeWithOtherMembersPurges(t *testing.T) {
	k, e := testEngine(t, 8)
	e.Home.Place(0x8000, 1)
	access(k, e, 0, 0x8000, false)
	access(k, e, 3, 0x8000, false)
	access(k, e, 6, 0x8000, false)
	res, _ := access(k, e, 0, 0x8000, true)
	if res.Txn != coherence.Invalidation {
		t.Fatalf("txn = %v, want invalidation", res.Txn)
	}
	for _, n := range []int{3, 6} {
		if e.Caches[n].State(0x8000) != coherence.Invalid {
			t.Fatalf("member %d survived upgrade purge", n)
		}
	}
	if e.Caches[0].State(0x8000) != coherence.WriteExclusive {
		t.Fatal("upgrader not WE")
	}
	if res.Traversals < 2 {
		t.Fatalf("purge of 2 members took %d traversals, want >= 2", res.Traversals)
	}
}

func TestLocalUncachedMissIsFree(t *testing.T) {
	k, e := testEngine(t, 8)
	e.Home.Place(0x9000, 4)
	res, lat := access(k, e, 4, 0x9000, false)
	if !res.Local || res.Traversals != 0 {
		t.Fatalf("res = %+v, want local miss", res)
	}
	if lat <= 0 {
		t.Fatalf("local miss latency = %v, want bank time", lat)
	}
}

func TestCleanEvictionUnlinksSilently(t *testing.T) {
	k, e := testEngine(t, 4)
	const a, b = 0x1_0000_0000, 0x1_0002_0000 // conflicting set
	e.Home.Place(a, 1)
	e.Home.Place(b, 1)
	access(k, e, 0, a, false)
	blockA := e.Caches[0].BlockAddr(a)
	if e.Directory().Line(blockA).Head != 0 {
		t.Fatal("reader not on list")
	}
	access(k, e, 0, b, false) // evicts clean a
	if e.Directory().Line(blockA).HasSharer(0) {
		t.Fatal("evicted clean copy still on sharing list")
	}
	if e.WriteBacksOf(0) != 0 {
		t.Fatal("clean eviction generated a write-back")
	}
}

func TestDirtyEvictionWritesBack(t *testing.T) {
	k, e := testEngine(t, 4)
	const a, b = 0x1_0000_0000, 0x1_0002_0000
	e.Home.Place(a, 1)
	e.Home.Place(b, 1)
	access(k, e, 0, a, true)
	access(k, e, 0, b, false)
	k.Run()
	if e.WriteBacksOf(0) != 1 {
		t.Fatalf("WriteBacks = %d, want 1", e.WriteBacksOf(0))
	}
	ln := e.Directory().Line(e.Caches[0].BlockAddr(a))
	if ln.Dirty || ln.HasSharer(0) {
		t.Fatalf("write-back did not clean directory: %+v", ln)
	}
}

func TestConsistencyUnderRandomTraffic(t *testing.T) {
	k := sim.NewKernel()
	r := ring.New(k, ring.Config{Nodes: 8})
	e := New(r, machine(k, 8, 9))
	rng := sim.NewRand(321)
	blocks := []uint64{0x1000, 0x2000, 0x3000}
	for i := 0; i < 250; i++ {
		node := rng.Intn(8)
		blk := blocks[rng.Intn(len(blocks))]
		write := rng.Bool(0.4)
		e.Access(node, blk, write, func(sim.Time, coherence.Result) {})
		k.Run()
		for _, b := range blocks {
			ln := e.Directory().Line(b)
			writers := 0
			for n := 0; n < 8; n++ {
				st := e.Caches[n].State(b)
				if st == coherence.WriteExclusive {
					writers++
				}
				if st != coherence.Invalid && !ln.HasSharer(n) {
					t.Fatalf("block %#x: cache %d holds %v but absent from list", b, n, st)
				}
			}
			if writers > 1 {
				t.Fatalf("block %#x has %d writers", b, writers)
			}
			if len(ln.List()) != ln.NumSharers() {
				t.Fatalf("block %#x: list/presence mismatch", b)
			}
		}
	}
}
