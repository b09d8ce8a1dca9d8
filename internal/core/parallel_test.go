package core

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/trace"
	"repro/internal/workload"
)

// privateGen builds the PRIVATE workload: all-private references, so
// every miss stays at its home node.
func privateGen(cpus, refs int, seed uint64) *workload.Generator {
	prof, ok := workload.ProfileFor("PRIVATE", cpus)
	if !ok {
		panic(fmt.Sprintf("no PRIVATE/%d profile", cpus))
	}
	return workload.NewGenerator(workload.Config{Profile: prof, DataRefsPerCPU: refs, Seed: seed})
}

// snapJSON renders a run's result artifact in its canonical serialized
// form — the byte string the cross-check compares.
func snapJSON(t *testing.T, m *Metrics) string {
	t.Helper()
	b, err := json.Marshal(m.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestParallelByteIdenticalToSequential is the zero-coupling half of
// the identity guarantee: a PRIVATE workload over the segmented ring,
// whose misses all stay at their home node, gives byte-for-byte the
// sequential artifact at every segment-aligned partition count, across
// seeds and warmup gating, and posts no cross-shard event.
func TestParallelByteIdenticalToSequential(t *testing.T) {
	for _, cpus := range []int{8, 16} {
		for _, seed := range []uint64{1, 7, 1993} {
			cfg := Config{Protocol: DirectoryRing, Seed: seed, WarmupDataRefs: 150}
			cfg.Ring.Segments = 8
			seq := Run(cfg, privateGen(cpus, 600, seed))
			if seq.Parallel.Partitions != 1 || seq.Parallel.Fallback != "" {
				t.Fatalf("sequential run reported %+v", seq.Parallel)
			}
			if seq.DataRefs == 0 || seq.PrivateMisses == 0 || seq.SharedMisses != 0 {
				t.Fatalf("degenerate PRIVATE run: %+v", seq)
			}
			want := snapJSON(t, seq)
			for _, p := range []int{2, 4, 8} {
				name := fmt.Sprintf("PRIVATE/%d segs=8 P=%d seed=%d", cpus, p, seed)
				pcfg := cfg
				pcfg.Parallel = p
				got := Run(pcfg, privateGen(cpus, 600, seed))
				if got.Parallel.Fallback != "" || got.Parallel.Partitions != p {
					t.Fatalf("%s: got %+v", name, got.Parallel)
				}
				if g := snapJSON(t, got); g != want {
					t.Errorf("%s: parallel result diverged from sequential\nseq: %s\npar: %s", name, want, g)
				}
				if got.EventsFired != seq.EventsFired {
					t.Errorf("%s: events fired %d (par) != %d (seq)", name, got.EventsFired, seq.EventsFired)
				}
				if got.Parallel.Windows == 0 || len(got.Parallel.BarrierStallNS) != p {
					t.Errorf("%s: missing sync stats %+v", name, got.Parallel)
				}
				if got.Parallel.CrossEvents != 0 {
					t.Errorf("%s: PRIVATE run posted %d cross-shard events, want 0", name, got.Parallel.CrossEvents)
				}
			}
		}
	}
}

// TestParallelFallsBackLoudly pins the other half of the contract:
// every configuration outside the covered class runs sequentially,
// names why, and produces exactly the sequential artifact.
func TestParallelFallsBackLoudly(t *testing.T) {
	mp3d := func(seed uint64) *workload.Generator {
		return workload.NewGenerator(workload.Config{
			Profile: workload.MustProfile("MP3D", 16), DataRefsPerCPU: 400, Seed: seed})
	}
	cases := []struct {
		name   string
		cfg    Config
		gen    func() workload.Source
		reason string // a substring the fallback reason must contain
	}{
		{"snoop-ring", Config{Protocol: SnoopRing, Seed: 3, WarmupDataRefs: 100},
			func() workload.Source { return mp3d(3) }, "centrally arbitrated"},
		{"sci-ring", Config{Protocol: SCIRing, Seed: 3, WarmupDataRefs: 100},
			func() workload.Source { return mp3d(3) }, "centrally arbitrated"},
		{"snoop-bus", Config{Protocol: SnoopBus, Seed: 3, WarmupDataRefs: 100},
			func() workload.Source { return mp3d(3) }, "centrally arbitrated"},
		{"hier-ring", Config{Protocol: HierRing, Clusters: 4, Seed: 3, WarmupDataRefs: 100},
			func() workload.Source { return mp3d(3) }, "centrally arbitrated"},
		{"shared-workload", Config{Protocol: DirectoryRing, Seed: 3, WarmupDataRefs: 100},
			func() workload.Source { return mp3d(3) }, "segments"},
		{"classic-ring-private", Config{Protocol: DirectoryRing, Seed: 3, WarmupDataRefs: 100},
			func() workload.Source { return privateGen(16, 400, 3) }, "segments"},
		{"traced", Config{Protocol: DirectoryRing, Seed: 3, Trace: obs.Config{SampleEvery: 8}},
			func() workload.Source { return privateGen(16, 400, 3) }, "tracing"},
		{"non-blocking-stores", Config{Protocol: DirectoryRing, Seed: 3, NonBlockingStores: true},
			func() workload.Source { return privateGen(16, 400, 3) }, "non-blocking stores"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			seqCfg := tc.cfg
			seq := NewSystem(seqCfg, tc.gen()).Run()
			want := snapJSON(t, seq)

			parCfg := tc.cfg
			parCfg.Parallel = 4
			got := Run(parCfg, tc.gen())
			if got.Parallel.Partitions != 1 {
				t.Fatalf("uncovered config ran with %d partitions", got.Parallel.Partitions)
			}
			if !strings.Contains(got.Parallel.Fallback, tc.reason) {
				t.Fatalf("fallback reason %q does not name %q: uncovered configs must report why",
					got.Parallel.Fallback, tc.reason)
			}
			if got.Parallel.Requested != 4 {
				t.Fatalf("Requested = %d, want 4", got.Parallel.Requested)
			}
			if g := snapJSON(t, got); g != want {
				t.Errorf("fallback run diverged from plain sequential\nseq: %s\nfb:  %s", want, g)
			}
		})
	}
}

// sharedGen builds a SHARED workload — the traffic class the segmented
// interconnect's cross-shard posts exist to carry.
func sharedGen(cpus, refs int, seed uint64) *workload.Generator {
	return workload.NewGenerator(workload.Config{
		Profile: workload.MustProfile("MP3D", cpus), DataRefsPerCPU: refs, Seed: seed})
}

// TestSegmentedParallelByteIdentical is the headline correctness
// guarantee: a SHARED-workload directory run over the segmented ring,
// partitioned across shards with real cross-shard coherence traffic,
// produces byte-for-byte the sequential artifact — with the same
// kernel event count — across shapes, seeds and every segment-aligned
// partition count.
func TestSegmentedParallelByteIdentical(t *testing.T) {
	shapes := []struct {
		bench            string
		cpus, segs, refs int
	}{
		{"MP3D", 8, 2, 500}, {"MP3D", 8, 4, 500}, {"MP3D", 16, 4, 500}, {"MP3D", 16, 8, 500},
		{"MP3D", 32, 8, 300},
	}
	for i, sh := range shapes {
		seed := uint64(7*i + 3)
		gen := func() *workload.Generator { return sharedGen(sh.cpus, sh.refs, seed) }
		cfg := Config{Protocol: DirectoryRing, Seed: seed, WarmupDataRefs: 100}
		cfg.Ring.Segments = sh.segs
		seq := Run(cfg, gen())
		if seq.Parallel.Partitions != 1 || seq.Parallel.Fallback != "" {
			t.Fatalf("sequential segmented run reported %+v", seq.Parallel)
		}
		if seq.SharedMisses == 0 || seq.Upgrades == 0 {
			t.Fatalf("degenerate SHARED run: %+v", seq)
		}
		want := snapJSON(t, seq)
		for p := 2; p <= sh.segs; p++ {
			if sh.segs%p != 0 {
				continue
			}
			name := fmt.Sprintf("%s/%d segs=%d P=%d seed=%d", sh.bench, sh.cpus, sh.segs, p, seed)
			pcfg := cfg
			pcfg.Parallel = p
			got := Run(pcfg, gen())
			if got.Parallel.Fallback != "" || got.Parallel.Partitions != p {
				t.Fatalf("%s: got %+v", name, got.Parallel)
			}
			if g := snapJSON(t, got); g != want {
				t.Errorf("%s: segmented parallel diverged\nseq: %s\npar: %s", name, want, g)
			}
			if got.EventsFired != seq.EventsFired {
				t.Errorf("%s: events fired %d (par) != %d (seq)", name, got.EventsFired, seq.EventsFired)
			}
			if got.Parallel.Windows == 0 || len(got.Parallel.BarrierStallNS) != p {
				t.Errorf("%s: missing sync stats %+v", name, got.Parallel)
			}
			if got.Parallel.WindowPS <= 0 {
				t.Errorf("%s: window %d ps, want boundary-hop lookahead > 0", name, got.Parallel.WindowPS)
			}
			// A SHARED workload must actually exercise the boundary
			// links: remote-home requests become cross-shard posts.
			if got.Parallel.CrossEvents == 0 || got.Parallel.CrossWindows == 0 {
				t.Errorf("%s: no cross-shard traffic (%+v)", name, got.Parallel)
			}
		}
	}
}

// TestSegmentedRandomizedCrossCheck draws fresh shapes, seeds and
// partition counts every run instead of walking a fixed table, so the
// identity guarantee keeps being probed at configurations nobody
// hand-picked. The draw is logged; any failure replays by pinning it.
func TestSegmentedRandomizedCrossCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(time.Now().UnixNano()))
	for i := 0; i < 2; i++ {
		cpus := []int{8, 16}[rng.Intn(2)]
		var divs []int
		for d := 2; d <= cpus; d++ {
			if cpus%d == 0 {
				divs = append(divs, d)
			}
		}
		segs := divs[rng.Intn(len(divs))]
		var pdivs []int
		for d := 2; d <= segs; d++ {
			if segs%d == 0 {
				pdivs = append(pdivs, d)
			}
		}
		p := pdivs[rng.Intn(len(pdivs))]
		seed := rng.Uint64()
		t.Logf("draw %d: cpus=%d segs=%d p=%d seed=%d", i, cpus, segs, p, seed)

		cfg := Config{Protocol: DirectoryRing, Seed: seed, WarmupDataRefs: 100}
		cfg.Ring.Segments = segs
		seq := Run(cfg, sharedGen(cpus, 400, seed))
		pcfg := cfg
		pcfg.Parallel = p
		got := Run(pcfg, sharedGen(cpus, 400, seed))
		if got.Parallel.Fallback != "" || got.Parallel.Partitions != p {
			t.Fatalf("draw %d: got %+v", i, got.Parallel)
		}
		if g, want := snapJSON(t, got), snapJSON(t, seq); g != want {
			t.Errorf("draw %d (cpus=%d segs=%d p=%d seed=%d): diverged\nseq: %s\npar: %s",
				i, cpus, segs, p, seed, want, g)
		}
		if got.EventsFired != seq.EventsFired {
			t.Errorf("draw %d: events fired %d (par) != %d (seq)",
				i, got.EventsFired, seq.EventsFired)
		}
	}
}

// emptySource is a planner-level stand-in: real profiles only exist at
// power-of-two CPU counts, but the partition planner must handle any
// segment count.
type emptySource struct{ cpus int }

func (s emptySource) NumCPUs() int                    { return s.cpus }
func (s emptySource) Next(int) (r trace.Ref, ok bool) { return trace.Ref{}, false }

// TestSegmentedPartitionPlanning: partitions must own whole segments,
// so the planner picks the largest divisor of the segment count within
// the request — and falls back loudly when there is none.
func TestSegmentedPartitionPlanning(t *testing.T) {
	cfg := Config{Protocol: DirectoryRing, Seed: 5, Parallel: 6}
	cfg.Ring.Segments = 8
	p, w, fb := planPartitions(cfg, emptySource{16})
	if p != 4 || fb != "" || w <= 0 {
		t.Fatalf("request 6 over 8 segments: got p=%d w=%d fb=%q, want p=4", p, w, fb)
	}
	cfg.Parallel = 2
	cfg.Ring.Segments = 3
	p, _, fb = planPartitions(cfg, emptySource{9})
	if p != 1 || fb == "" {
		t.Fatalf("request 2 over 3 segments: got p=%d fb=%q, want loud fallback", p, fb)
	}
	cfg.Parallel = 3
	p, w, fb = planPartitions(cfg, emptySource{9})
	if p != 3 || fb != "" || w <= 0 {
		t.Fatalf("request 3 over 3 segments: got p=%d w=%d fb=%q, want p=3", p, w, fb)
	}
}

// TestParallelClampsToCPUs: requesting more partitions than
// processors clamps rather than building empty domains — here to one
// partition per segment, with one processor each.
func TestParallelClampsToCPUs(t *testing.T) {
	cfg := Config{Protocol: DirectoryRing, Seed: 2, Parallel: 64}
	cfg.Ring.Segments = 8
	m := Run(cfg, sharedGen(8, 300, 2))
	if m.Parallel.Partitions != 8 {
		t.Fatalf("partitions = %d, want clamp to 8 CPUs", m.Parallel.Partitions)
	}
	if m.Parallel.Fallback != "" {
		t.Fatalf("unexpected fallback %q", m.Parallel.Fallback)
	}
}
