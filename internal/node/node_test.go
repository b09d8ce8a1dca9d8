package node

import (
	"testing"

	"repro/internal/cache"
	"repro/internal/coherence"
	"repro/internal/memory"
	"repro/internal/sim"
)

// recorder is an engine that fills what it is asked for at once and
// remembers the calls.
type recorder struct {
	s     *Set
	calls []string
}

func (r *recorder) Miss(node int, block uint64, write bool, done func(sim.Time, coherence.Result)) {
	st, call := coherence.ReadShared, "read"
	if write {
		st, call = coherence.WriteExclusive, "write"
	}
	r.calls = append(r.calls, call)
	r.s.Fill(node, block, st)
	done(r.s.K.Now(), coherence.Result{Txn: coherence.ReadMissClean})
}

func (r *recorder) Upgrade(node int, block uint64, done func(sim.Time, coherence.Result)) {
	r.calls = append(r.calls, "upgrade")
	r.s.Caches[node].Upgrade(block)
	done(r.s.K.Now(), coherence.Result{Txn: coherence.Invalidation})
}

func newSet(lo, hi int) (*Set, *recorder) {
	k := sim.NewKernel()
	s := New(k, memory.NewHomeMap(4, 4096, sim.NewRand(1)), cache.Config{}, lo, hi)
	r := &recorder{s: s}
	s.Bind(r)
	return s, r
}

func TestAccessDispatch(t *testing.T) {
	s, r := newSet(0, 4)
	hits := 0
	done := func(_ sim.Time, res coherence.Result) {
		if res.Hit {
			hits++
		}
	}
	s.Access(1, 0x1004, false, done) // read miss
	s.Access(1, 0x1008, false, done) // same block: hit
	s.Access(1, 0x1000, true, done)  // RS copy: upgrade
	s.Access(1, 0x1000, true, done)  // WE copy: hit
	s.Access(2, 0x2000, true, done)  // write miss
	want := []string{"read", "upgrade", "write"}
	if len(r.calls) != len(want) || hits != 2 {
		t.Fatalf("calls %v, hits %d; want %v and 2 hits", r.calls, hits, want)
	}
	for i := range want {
		if r.calls[i] != want[i] {
			t.Fatalf("calls %v, want %v", r.calls, want)
		}
	}
	if !s.HasBlock(1, 0x100c) || s.HasBlock(0, 0x1000) {
		t.Fatal("HasBlock disagrees with the caches")
	}
}

func TestFillCountsDirtyVictims(t *testing.T) {
	s, _ := newSet(0, 4)
	const a, b, c = 0x1_0000_0000, 0x1_0002_0000, 0x1_0004_0000 // one cache set
	s.Fill(0, a, coherence.WriteExclusive)
	if v := s.Fill(0, b, coherence.ReadShared); !v.Valid || !v.Dirty || v.Block != a {
		t.Fatalf("victim %+v, want dirty %#x", v, uint64(a))
	}
	s.Fill(0, c, coherence.ReadShared) // clean victim b
	if got := s.WriteBacksOf(0); got != 1 {
		t.Fatalf("WriteBacksOf(0) = %d, want 1", got)
	}
}

func TestRangeAllocatesOnlyItsNodes(t *testing.T) {
	s, _ := newSet(1, 3)
	if s.Whole() {
		t.Fatal("a two-node range reported the whole machine")
	}
	for n := 0; n < 4; n++ {
		own := n >= 1 && n < 3
		if (s.Caches[n] != nil) != own || (s.Banks[n] != nil) != own {
			t.Fatalf("node %d: cache %v bank %v, want allocated = %v", n, s.Caches[n] != nil, s.Banks[n] != nil, own)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("a set accepted a second engine")
		}
	}()
	s.Bind(&recorder{s: s})
}

func TestFetchTimes(t *testing.T) {
	s, _ := newSet(0, 4)
	var fromCache, fromBank sim.Time = -1, -1
	s.Fetch(0, true, func() { fromCache = s.K.Now() })
	s.Fetch(0, false, func() { fromBank = s.K.Now() })
	s.Fetch(0, false, func() { fromBank = s.K.Now() }) // queued behind the first
	s.K.Run()
	if fromCache != CacheSupplyTime || fromBank != 2*memory.BankTime {
		t.Fatalf("cache supply at %v, second bank fetch at %v; want %v and %v",
			fromCache, fromBank, CacheSupplyTime, 2*memory.BankTime)
	}
}
