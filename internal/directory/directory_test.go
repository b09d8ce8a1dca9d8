package directory

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/cache"
	"repro/internal/coherence"
	"repro/internal/memory"
	"repro/internal/node"
	"repro/internal/obs"
	"repro/internal/ring"
	"repro/internal/sim"
)

// rings names the two interconnects every flow test runs over: the
// classic slotted ring and a two-segment chain of the segmented ring.
var rings = []string{"ring", "segmented"}

// newNets builds the named interconnect for nodes on k.
func newNets(k *sim.Kernel, net string, nodes int) []Interconnect {
	if net == "ring" {
		return []Interconnect{ring.New(k, ring.Config{Nodes: nodes})}
	}
	var nets []Interconnect
	for _, sr := range ring.NewSegmentedChain(k, ring.Config{Nodes: nodes, Segments: 2}) {
		nets = append(nets, sr)
	}
	return nets
}

// forRings runs f as one subtest per interconnect.
func forRings(t *testing.T, f func(t *testing.T, net string)) {
	for _, net := range rings {
		t.Run(net, func(t *testing.T) { f(t, net) })
	}
}

// machine returns the n nodes of a whole machine with the paper's
// caches and a seeded random page placement.
func machine(k *sim.Kernel, n int, seed uint64) *node.Set {
	return node.New(k, memory.NewHomeMap(n, 4096, sim.NewRand(seed)), cache.Config{}, 0, n)
}

func testEngine(t *testing.T, net string, nodes int) (*sim.Kernel, *Engine) {
	t.Helper()
	k := sim.NewKernel()
	return k, New(newNets(k, net, nodes), machine(k, nodes, 1), nil)
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
	forRings(t, func(t *testing.T, net string) {
		k, e := testEngine(t, net, 4)
		e.Home.Place(0x1000, 1)
		access(k, e, 0, 0x1000, false)
		res, lat := access(k, e, 0, 0x1000, false)
		if !res.Hit || lat != 0 {
			t.Fatalf("res=%+v lat=%v, want immediate hit", res, lat)
		}
	})
}

func TestRemoteCleanReadMissIsOneTraversal(t *testing.T) {
	forRings(t, func(t *testing.T, net string) {
		k, e := testEngine(t, net, 8)
		e.Home.Place(0x1000, 5)
		res, lat := access(k, e, 1, 0x1000, false)
		if res.Txn != coherence.ReadMissClean || res.Local {
			t.Fatalf("res = %+v, want remote clean read miss", res)
		}
		if res.Class != coherence.OneCycleClean {
			t.Fatalf("class = %v, want 1-cycle-clean", res.Class)
		}
		if res.Traversals != 1 {
			t.Fatalf("traversals = %d, want 1", res.Traversals)
		}
		rtt := e.geo.RoundTrip()
		// One traversal + one bank access + slot waits.
		if lat < rtt+memory.BankTime || lat > 2*rtt+memory.BankTime+rtt {
			t.Fatalf("latency %v implausible for a 1-traversal miss", lat)
		}
		// Directory now records the sharer.
		ln := e.Directory().Line(0x1000)
		if !ln.HasSharer(1) || ln.Dirty {
			t.Fatalf("directory line wrong after clean read: %+v", ln)
		}
	})
}

func TestLocalCleanMissUsesNoRing(t *testing.T) {
	forRings(t, func(t *testing.T, net string) {
		k, e := testEngine(t, net, 8)
		e.Home.Place(0x2000, 3)
		res, lat := access(k, e, 3, 0x2000, false)
		if !res.Local || res.Traversals != 0 {
			t.Fatalf("res = %+v, want local, 0 traversals", res)
		}
		if lat != memory.BankTime {
			t.Fatalf("local miss latency = %v, want 140ns", lat)
		}
	})
}

func TestDirtyMissClassDependsOnOwnerPosition(t *testing.T) {
	forRings(t, func(t *testing.T, net string) {
		// Requester n, home h, owner o: one traversal iff o is on the
		// h→n arc. With n=0, h=2: owner at 5 (on 2→0 arc) → 1 traversal;
		// owner at 1 (on 0→2 arc) → 2 traversals.
		cases := []struct {
			owner     int
			wantTrav  int
			wantClass coherence.MissClass
		}{
			{owner: 5, wantTrav: 1, wantClass: coherence.OneCycleDirty},
			{owner: 1, wantTrav: 2, wantClass: coherence.TwoCycle},
		}
		for _, c := range cases {
			k, e := testEngine(t, net, 8)
			e.Home.Place(0x3000, 2)
			access(k, e, c.owner, 0x3000, true) // make owner dirty
			res, _ := access(k, e, 0, 0x3000, false)
			if res.Txn != coherence.ReadMissDirty {
				t.Fatalf("owner %d: txn = %v, want read-miss-dirty", c.owner, res.Txn)
			}
			if res.Traversals != c.wantTrav || res.Class != c.wantClass {
				t.Fatalf("owner %d: traversals/class = %d/%v, want %d/%v",
					c.owner, res.Traversals, res.Class, c.wantTrav, c.wantClass)
			}
			// The owner downgraded; the reader holds RS; dirty bit clear.
			if e.Caches[c.owner].State(0x3000) != coherence.ReadShared {
				t.Fatal("owner did not downgrade")
			}
			if e.Caches[0].State(0x3000) != coherence.ReadShared {
				t.Fatal("reader did not get RS")
			}
			if e.Directory().Line(0x3000).Dirty {
				t.Fatal("dirty bit survived read miss")
			}
		}
	})
}

func TestWriteMissWithSharersIsTwoTraversals(t *testing.T) {
	forRings(t, func(t *testing.T, net string) {
		k, e := testEngine(t, net, 8)
		e.Home.Place(0x4000, 2)
		access(k, e, 4, 0x4000, false)
		access(k, e, 6, 0x4000, false)
		res, _ := access(k, e, 0, 0x4000, true)
		if res.Txn != coherence.WriteMissClean {
			t.Fatalf("txn = %v, want write-miss-clean", res.Txn)
		}
		if res.Traversals != 2 || res.Class != coherence.TwoCycle {
			t.Fatalf("traversals/class = %d/%v, want 2/two-cycle", res.Traversals, res.Class)
		}
		for _, n := range []int{4, 6} {
			if e.Caches[n].State(0x4000) != coherence.Invalid {
				t.Fatalf("sharer %d survived multicast", n)
			}
		}
		ln := e.Directory().Line(0x4000)
		if !ln.Dirty || ln.Owner != 0 || ln.NumSharers() != 1 {
			t.Fatalf("directory after write miss: %+v", ln)
		}
	})
}

func TestWriteMissNoSharersIsOneTraversal(t *testing.T) {
	forRings(t, func(t *testing.T, net string) {
		k, e := testEngine(t, net, 8)
		e.Home.Place(0x5000, 2)
		res, _ := access(k, e, 0, 0x5000, true)
		if res.Traversals != 1 || res.Class != coherence.OneCycleClean {
			t.Fatalf("traversals/class = %d/%v, want 1/one-cycle-clean", res.Traversals, res.Class)
		}
	})
}

func TestUpgradeWithSharersTwoTraversals(t *testing.T) {
	forRings(t, func(t *testing.T, net string) {
		k, e := testEngine(t, net, 8)
		e.Home.Place(0x6000, 2)
		access(k, e, 0, 0x6000, false)
		access(k, e, 5, 0x6000, false)
		res, _ := access(k, e, 0, 0x6000, true) // upgrade, sharer at 5
		if res.Txn != coherence.Invalidation {
			t.Fatalf("txn = %v, want invalidation", res.Txn)
		}
		if res.Traversals != 2 {
			t.Fatalf("traversals = %d, want 2 (request + multicast + ack)", res.Traversals)
		}
		if e.Caches[5].State(0x6000) != coherence.Invalid {
			t.Fatal("sharer survived invalidation")
		}
		if e.Caches[0].State(0x6000) != coherence.WriteExclusive {
			t.Fatal("upgrader not WE")
		}
	})
}

func TestUpgradeSoleSharerOneTraversal(t *testing.T) {
	forRings(t, func(t *testing.T, net string) {
		k, e := testEngine(t, net, 8)
		e.Home.Place(0x7000, 2)
		access(k, e, 0, 0x7000, false)
		res, _ := access(k, e, 0, 0x7000, true)
		if res.Traversals != 1 {
			t.Fatalf("traversals = %d, want 1 (request + ack, no multicast)", res.Traversals)
		}
	})
}

func TestLocalUpgradeNoSharersIsFree(t *testing.T) {
	forRings(t, func(t *testing.T, net string) {
		k, e := testEngine(t, net, 8)
		e.Home.Place(0x8000, 3)
		access(k, e, 3, 0x8000, false)
		res, _ := access(k, e, 3, 0x8000, true)
		if !res.Local || res.Traversals != 0 {
			t.Fatalf("res = %+v, want local 0-traversal upgrade", res)
		}
		if e.Caches[3].State(0x8000) != coherence.WriteExclusive {
			t.Fatal("upgrader not WE")
		}
	})
}

func TestLocalMissOnRemoteDirtyBlock(t *testing.T) {
	forRings(t, func(t *testing.T, net string) {
		// Home node misses on its own block while a remote node holds it
		// dirty: one traversal (home → owner → home).
		k, e := testEngine(t, net, 8)
		e.Home.Place(0x9000, 2)
		access(k, e, 6, 0x9000, true)
		res, _ := access(k, e, 2, 0x9000, false)
		if res.Txn != coherence.ReadMissDirty || res.Traversals != 1 || res.Class != coherence.OneCycleDirty {
			t.Fatalf("res = %+v, want 1-traversal dirty read", res)
		}
		if e.Caches[6].State(0x9000) != coherence.ReadShared {
			t.Fatal("owner did not downgrade")
		}
	})
}

func TestDirtyEvictionWritesBackAndClearsDirectory(t *testing.T) {
	forRings(t, func(t *testing.T, net string) {
		k, e := testEngine(t, net, 4)
		const a, b = 0x1_0000_0000, 0x1_0002_0000 // same cache set
		e.Home.Place(a, 1)
		e.Home.Place(b, 1)
		access(k, e, 0, a, true)
		access(k, e, 0, b, false) // evicts dirty a
		k.Run()                   // let the write-back land
		if e.WriteBacksOf(0) != 1 {
			t.Fatalf("WriteBacks = %d, want 1", e.WriteBacksOf(0))
		}
		ln := e.Directory().Line(e.Caches[0].BlockAddr(a))
		if ln.Dirty || ln.HasSharer(0) {
			t.Fatalf("directory not cleaned by write-back: %+v", ln)
		}
		res, _ := access(k, e, 2, a, false)
		if res.Txn != coherence.ReadMissClean {
			t.Fatalf("post-write-back read = %+v, want clean miss", res)
		}
	})
}

func TestHomeOwnedDirtySupplyCountsAsDirtyMiss(t *testing.T) {
	forRings(t, func(t *testing.T, net string) {
		// The home's own cache holds the block WE: the request still takes
		// one traversal, but the transaction is a dirty miss.
		k, e := testEngine(t, net, 8)
		e.Home.Place(0xa000, 2)
		access(k, e, 2, 0xa000, true) // home takes it WE locally
		res, _ := access(k, e, 0, 0xa000, false)
		if res.Txn != coherence.ReadMissDirty || res.Traversals != 1 {
			t.Fatalf("res = %+v, want 1-traversal dirty read from home cache", res)
		}
		if e.Caches[2].State(0xa000) != coherence.ReadShared {
			t.Fatal("home cache did not downgrade")
		}
	})
}

func TestDirectoryStateConsistencyUnderRandomTraffic(t *testing.T) {
	forRings(t, func(t *testing.T, net string) {
		k := sim.NewKernel()
		e := New(newNets(k, net, 8), machine(k, 8, 7), nil)
		rng := sim.NewRand(123)
		blocks := []uint64{0x1000, 0x2000, 0x3000, 0x4000, 0x5000}
		for i := 0; i < 300; i++ {
			node := rng.Intn(8)
			blk := blocks[rng.Intn(len(blocks))]
			write := rng.Bool(0.4)
			doneCalled := false
			e.Access(node, blk, write, func(sim.Time, coherence.Result) { doneCalled = true })
			k.Run()
			if !doneCalled {
				t.Fatal("access did not complete")
			}
			for _, b := range blocks {
				ln := e.Directory().Line(b)
				writers := 0
				for n := 0; n < 8; n++ {
					st := e.Caches[n].State(b)
					if st == coherence.WriteExclusive {
						writers++
						if !ln.Dirty || ln.Owner != n {
							t.Fatalf("block %#x: cache %d WE but directory says dirty=%v owner=%d",
								b, n, ln.Dirty, ln.Owner)
						}
					}
					if st != coherence.Invalid && !ln.HasSharer(n) {
						t.Fatalf("block %#x: cache %d holds %v without presence bit", b, n, st)
					}
				}
				if writers > 1 {
					t.Fatalf("block %#x has %d writers", b, writers)
				}
			}
		}
	})
}

// lineState is a directory line's observable state.
type lineState struct {
	Sharers []int
	Dirty   bool
	Owner   int
}

func lineOf(e *Engine, block uint64) lineState {
	ln := e.Directory().Line(block)
	st := lineState{Sharers: ln.Sharers(), Dirty: ln.Dirty, Owner: -1}
	if ln.Dirty {
		st.Owner = ln.Owner
	}
	return st
}

// TestZeroContentionRingsAgree runs one seeded access sequence, each
// access starting after the previous one (and any write-back it
// caused) has finished, over the classic ring and over a segmented
// chain with the same home map. Without contention the interconnects
// differ only in timing, so every access must be classified alike —
// transaction, latency class, traversals, locality — and the directory
// must end in the same state.
func TestZeroContentionRingsAgree(t *testing.T) {
	const nodes = 8
	// Two of the blocks share a cache set, so the run also evicts dirty
	// blocks and writes them back.
	blocks := []uint64{0x1000, 0x2000, 0x3000, 0x4000, 0x5010, 0x1_0000_0000, 0x1_0002_0000}
	for _, seed := range []uint64{1, 2, 3} {
		type outcome struct {
			Txn        coherence.Txn
			Class      coherence.MissClass
			Traversals int
			Local      bool
		}
		results := map[string][]outcome{}
		engines := map[string]*Engine{}
		for _, net := range rings {
			k := sim.NewKernel()
			e := New(newNets(k, net, nodes), node.New(k, memory.NewHashedHomeMap(nodes, 4096, seed), cache.Config{}, 0, nodes), nil)
			rng := sim.NewRand(seed)
			for i := 0; i < 400; i++ {
				node := rng.Intn(nodes)
				blk := blocks[rng.Intn(len(blocks))]
				write := rng.Bool(0.4)
				var got *coherence.Result
				e.Access(node, blk, write, func(_ sim.Time, r coherence.Result) { got = &r })
				k.Run()
				if got == nil {
					t.Fatalf("%s seed %d: access %d never completed", net, seed, i)
				}
				results[net] = append(results[net], outcome{got.Txn, got.Class, got.Traversals, got.Local})
			}
			engines[net] = e
		}
		want, got := results["ring"], results["segmented"]
		for i := range want {
			if want[i] != got[i] {
				t.Fatalf("seed %d access %d: ring %+v, segmented %+v", seed, i, want[i], got[i])
			}
		}
		var wb uint64
		for n := 0; n < nodes; n++ {
			wb += engines["ring"].WriteBacksOf(n)
		}
		if wb == 0 {
			t.Fatalf("seed %d: the sequence wrote nothing back", seed)
		}
		for _, b := range blocks {
			blk := engines["ring"].Caches[0].BlockAddr(b)
			r, s := lineOf(engines["ring"], blk), lineOf(engines["segmented"], blk)
			if !reflect.DeepEqual(r, s) {
				t.Errorf("seed %d block %#x: ring line %+v, segmented line %+v", seed, blk, r, s)
			}
		}
	}
}

// TestOutstandingRequestsPerNode sends several requests from one node
// before any completes, two of them for the same block (a store that
// found the write buffer full does this), and requires each to finish
// through its own callback — even when the later request's response
// overtakes the earlier one's.
func TestOutstandingRequestsPerNode(t *testing.T) {
	forRings(t, func(t *testing.T, net string) {
		k, e := testEngine(t, net, 8)
		e.Home.Place(0x1000, 5)
		e.Home.Place(0x2000, 6)
		// Node 3 owns 0x1000 dirty and lies on node 1's arc to the home,
		// so node 1's first write is forwarded the long way round; the
		// second write finds node 1 already the owner at the home and is
		// answered directly.
		access(k, e, 3, 0x1000, true)
		got := map[string]coherence.Result{}
		var order []string
		request := func(name string, addr uint64, write bool) {
			e.Access(1, addr, write, func(_ sim.Time, r coherence.Result) {
				if _, dup := got[name]; dup {
					t.Errorf("%s completed twice", name)
				}
				got[name] = r
				order = append(order, name)
			})
		}
		request("first", 0x1000, true)
		request("other", 0x2000, false)
		request("again", 0x1000, true)
		k.Run()
		if len(got) != 3 {
			t.Fatalf("completed %v, want all three", order)
		}
		if r := got["first"]; r.Txn != coherence.WriteMissDirty || r.Traversals != 2 {
			t.Errorf("first = %+v, want the 2-traversal forwarded write miss", r)
		}
		if r := got["again"]; r.Txn != coherence.WriteMissClean || r.Traversals != 1 {
			t.Errorf("again = %+v, want a 1-traversal write miss", r)
		}
		if r := got["other"]; r.Txn != coherence.ReadMissClean {
			t.Errorf("other = %+v, want a clean read miss", r)
		}
		if pos := map[string]int{order[0]: 0, order[1]: 1, order[2]: 2}; pos["again"] > pos["first"] {
			t.Errorf("completion order %v: the second request did not overtake the first", order)
		}
		for n := range e.pend {
			for _, p := range e.pend[n] {
				if p.done != nil {
					t.Fatalf("node %d still has a pending request for %#x", n, p.block)
				}
			}
		}
	})
}

// TestTracerNeedsWholeClassicRing pins the one restriction of the
// engine: spans are marked at the home on the requester's record, so a
// traced engine must own every node of a classic ring.
func TestTracerNeedsWholeClassicRing(t *testing.T) {
	for _, c := range []struct {
		net    string
		lo, hi int
	}{{"segmented", 0, 0}, {"ring", 0, 4}} {
		t.Run(fmt.Sprintf("%s[%d,%d)", c.net, c.lo, c.hi), func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatal("New accepted a tracer it cannot serve")
				}
			}()
			hi := c.hi
			if hi == 0 {
				hi = 8 // the whole machine
			}
			k := sim.NewKernel()
			n := node.New(k, memory.NewHomeMap(8, 4096, sim.NewRand(1)), cache.Config{}, c.lo, hi)
			New(newNets(k, c.net, 8), n, obs.New(obs.Config{SampleEvery: 1}, 8))
		})
	}
}
