package sweep

import (
	"bytes"
	"context"
	"errors"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/sim"
)

// testGrid is a small Figure-5-style sweep: protocol × benchmark ×
// CPUs × processor cycle.
func testGrid() []Job {
	var jobs []Job
	for _, proto := range []string{"snoop-ring", "directory-ring"} {
		for _, cpus := range []int{8, 16} {
			for _, cycNS := range []int64{5, 20} {
				jobs = append(jobs, Job{
					Protocol:       proto,
					Benchmark:      "MP3D",
					CPUs:           cpus,
					ProcCyclePS:    cycNS * 1000,
					DataRefsPerCPU: 300,
					Seed:           7,
				})
			}
		}
	}
	return jobs
}

func TestJobHashCanonical(t *testing.T) {
	// Two spellings of the same experiment hash identically.
	a := Job{Benchmark: "MP3D", CPUs: 16, DataRefsPerCPU: 2000, Seed: 1}
	b := Job{}
	if a.Hash() != b.Hash() {
		t.Errorf("normalized defaults should hash like explicit defaults")
	}
	// Any axis change must change the hash.
	mutants := []Job{
		{Protocol: "directory-ring"},
		{Benchmark: "WATER", CPUs: 8},
		{CPUs: 8},
		{ProcCyclePS: 5000},
		{Seed: 2},
		{DataRefsPerCPU: 100},
		{RingWidthBits: 64},
		{NonBlockingStores: true},
		{Kind: "calibrated"},
		{Protocol: "directory-ring", RingSegments: 4},
	}
	seen := map[string]bool{b.Hash(): true}
	for _, m := range mutants {
		h := m.Hash()
		if seen[h] {
			t.Errorf("job %+v collides with a previous hash", m)
		}
		seen[h] = true
	}
}

// TestJobRejectsMalformedShapes: every field value below used to reach
// a simulator panic inside a worker goroutine, which took the whole
// serving process down. Each must come back as a job error.
func TestJobRejectsMalformedShapes(t *testing.T) {
	hier := func(clusters int) Job { return Job{Protocol: "hier-ring", CPUs: 8, Clusters: clusters} }
	for name, j := range map[string]Job{
		"clusters 3 of 8 cpus":  hier(3),
		"clusters 1":            hier(1),
		"clusters -2":           hier(-2),
		"clusters 16 of 8 cpus": hier(16),
		"cache_bytes 1000":      {CacheBytes: 1000},
		"cache_bytes -16":       {CacheBytes: -16},
		"cache_block_bytes 24":  {CacheBlockBytes: 24},
		"page_bytes -1":         {PageBytes: -1},
		"page_bytes 3":          {PageBytes: 3},
		"ring_width_bits 7":     {RingWidthBits: 7},
		"ring_width_bits -32":   {RingWidthBits: -32},
		"ring_block_bytes 3":    {RingBlockBytes: 3},
		"ring_probe_pairs -1":   {RingProbePairs: -1},
		"ring_clock_ps -1":      {RingClockPS: -1},
		"proc_cycle_ps -1":      {ProcCyclePS: -1},
		"bus_clock_ps -1":       {Protocol: "snoop-bus", BusClockPS: -1},
	} {
		j.DataRefsPerCPU = 50
		if _, err := j.SystemConfig(); err == nil {
			t.Errorf("%s: SystemConfig accepted", name)
		}
		eng := New(Options{Workers: 1})
		if _, err := eng.RunOne(j); err == nil || !strings.HasPrefix(err.Error(), "sweep: job ") {
			t.Errorf("%s: RunOne error %v, want a sweep: job error", name, err)
		}
	}
	// Shapes that run today stay accepted: a bus clock the ring never
	// reads, a ring width the bus never reads.
	for name, j := range map[string]Job{
		"bus_clock_ps -1 on the ring":  {BusClockPS: -1},
		"ring_width_bits 7 on the bus": {Protocol: "snoop-bus", RingWidthBits: 7},
		"clusters 3 off the hier ring": {Clusters: 3},
	} {
		if _, err := j.SystemConfig(); err != nil {
			t.Errorf("%s: rejected: %v", name, err)
		}
	}
}

// TestJobRejectsBadSegmentShapes: an invalid segmented-ring job
// arrives over the wire, so it must come back as a job error — core
// treats the same shapes as programmer error and panics, which would
// take the whole serving process down.
func TestJobRejectsBadSegmentShapes(t *testing.T) {
	for name, j := range map[string]Job{
		"one segment":    {Benchmark: "MP3D", CPUs: 16, Protocol: "directory-ring", RingSegments: 1},
		"wrong protocol": {Benchmark: "MP3D", CPUs: 16, Protocol: "snoop-ring", RingSegments: 4},
		"indivisible":    {Benchmark: "MP3D", CPUs: 16, Protocol: "directory-ring", RingSegments: 5},
	} {
		if _, err := j.SystemConfig(); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	// A valid segmented job executes — even on a traced engine, which
	// must drop tracing for it rather than fail.
	j := Job{Benchmark: "MP3D", CPUs: 16, Protocol: "directory-ring",
		RingSegments: 4, DataRefsPerCPU: 200, Seed: 3}
	if _, err := j.SystemConfig(); err != nil {
		t.Fatalf("valid segmented job rejected: %v", err)
	}
	eng := New(Options{Workers: 1, Trace: obs.Config{SampleEvery: 8}})
	res, err := eng.Run(context.Background(), []Job{j})
	if err != nil || len(res) != 1 {
		t.Fatalf("segmented job on traced engine: %v", err)
	}
	if res[0].Snapshot.ExecTimePS == 0 {
		t.Fatalf("degenerate segmented result: %+v", res[0].Snapshot)
	}
}

func TestJobRNGSeedDiffersPerJob(t *testing.T) {
	a := Job{Seed: 1}
	b := Job{Seed: 1, CPUs: 8}
	if a.RNGSeed() == b.RNGSeed() {
		t.Error("distinct jobs derived the same RNG seed")
	}
	if a.RNGSeed() != a.RNGSeed() {
		t.Error("RNG seed not stable")
	}
}

// TestDeterminismAcrossWorkerCounts is the determinism regression the
// engine guarantees: the same sweep at workers=1 and workers=8 yields
// byte-identical serialized metrics for every job.
func TestDeterminismAcrossWorkerCounts(t *testing.T) {
	jobs := testGrid()
	r1, err := New(Options{Workers: 1}).Run(context.Background(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	r8, err := New(Options{Workers: 8}).Run(context.Background(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	for i := range jobs {
		b1, b8 := r1[i].CanonicalMetrics(), r8[i].CanonicalMetrics()
		if !bytes.Equal(b1, b8) {
			t.Errorf("job %s: workers=1 and workers=8 metrics differ:\n%s\nvs\n%s",
				jobs[i], b1, b8)
		}
	}
}

func TestRepeatedSweepHitsCache(t *testing.T) {
	e := New(Options{Workers: 4})
	jobs := testGrid()
	if _, err := e.Run(context.Background(), jobs); err != nil {
		t.Fatal(err)
	}
	first := e.Stats()
	if first.LastBatch.Computed != len(jobs) {
		t.Fatalf("cold batch computed %d of %d", first.LastBatch.Computed, len(jobs))
	}
	r1, err := e.Run(context.Background(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	s := e.Stats()
	if got := s.LastBatch.HitRate(); got < 0.9 {
		t.Errorf("repeated sweep hit rate %.2f, want >= 0.90", got)
	}
	if s.LastBatch.Computed != 0 {
		t.Errorf("repeated sweep recomputed %d jobs", s.LastBatch.Computed)
	}
	// Cache hits return the same live metrics object.
	r2, err := e.RunOne(jobs[0])
	if err != nil {
		t.Fatal(err)
	}
	if r1[0].Metrics() != r2.Metrics() {
		t.Error("cache hit returned a different metrics object")
	}
	if s.Done != 2*len(jobs) || s.Running != 0 || s.Queued != 2*len(jobs) {
		t.Errorf("lifetime stats off: %+v", s)
	}
}

func TestDuplicateJobsInOneBatchComputeOnce(t *testing.T) {
	var computed atomic.Int64
	counting := func(j Job) (*core.Metrics, error) {
		computed.Add(1)
		return runStandalone(j, obs.Config{}, 0)
	}
	e := New(Options{Workers: 8, Executors: map[string]Executor{"": counting}})
	job := Job{Benchmark: "MP3D", CPUs: 8, DataRefsPerCPU: 200}
	jobs := []Job{job, job, job, job}
	res, err := e.Run(context.Background(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	if n := computed.Load(); n != 1 {
		t.Errorf("duplicate job computed %d times", n)
	}
	for _, r := range res[1:] {
		if r.Metrics() != res[0].Metrics() {
			t.Error("duplicates did not share one result")
		}
	}
}

func TestDiskCacheColdVsWarm(t *testing.T) {
	dir := t.TempDir()
	jobs := testGrid()[:4]
	cold, err := New(Options{Workers: 2, CacheDir: dir}).Run(context.Background(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	// A fresh engine sharing the directory replays from disk.
	e2 := New(Options{Workers: 2, CacheDir: dir})
	warm, err := e2.Run(context.Background(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	s := e2.Stats()
	if s.DiskHits != len(jobs) {
		t.Errorf("disk hits = %d, want %d (computed %d)", s.DiskHits, len(jobs), s.Computed)
	}
	for i := range jobs {
		if !bytes.Equal(cold[i].CanonicalMetrics(), warm[i].CanonicalMetrics()) {
			t.Errorf("job %s: cache-cold and cache-warm metrics differ", jobs[i])
		}
		// The replayed result reconstructs live metrics correctly.
		if warm[i].Metrics().ProcUtil() != cold[i].Metrics().ProcUtil() {
			t.Errorf("job %s: replayed ProcUtil differs", jobs[i])
		}
	}
}

func TestRunPropagatesExecutorError(t *testing.T) {
	e := New(Options{Workers: 2})
	jobs := []Job{
		{Benchmark: "MP3D", CPUs: 8, DataRefsPerCPU: 150},
		{Benchmark: "NOSUCH", CPUs: 8, DataRefsPerCPU: 150},
	}
	res, err := e.Run(context.Background(), jobs)
	if err == nil {
		t.Fatal("expected error for unknown benchmark")
	}
	if res[0] == nil || res[0].Metrics() == nil {
		t.Error("healthy job should still complete")
	}
	if res[1] != nil {
		t.Error("failed job should have nil result")
	}
	if s := e.Stats(); s.Errors != 1 {
		t.Errorf("errors = %d, want 1", s.Errors)
	}
}

func TestUnknownKindErrors(t *testing.T) {
	e := New(Options{Workers: 1})
	if _, err := e.RunOne(Job{Kind: "nope"}); err == nil {
		t.Fatal("expected unknown-kind error")
	}
}

func TestRunHonorsContextCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	e := New(Options{Workers: 1})
	res, err := e.Run(ctx, testGrid())
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	nils := 0
	for _, r := range res {
		if r == nil {
			nils++
		}
	}
	if nils == 0 {
		t.Error("cancelled run should leave undispatched jobs nil")
	}
}

func TestEventsStream(t *testing.T) {
	var starts, dones, hits atomic.Int64
	e := New(Options{Workers: 2, OnEvent: func(ev Event) {
		switch ev.Type {
		case EventStart:
			starts.Add(1)
		case EventDone:
			dones.Add(1)
			if ev.Wall <= 0 {
				t.Error("done event without wall clock")
			}
		case EventHit:
			hits.Add(1)
		}
	}})
	jobs := testGrid()[:3]
	if _, err := e.Run(context.Background(), jobs); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(context.Background(), jobs); err != nil {
		t.Fatal(err)
	}
	if starts.Load() != 3 || dones.Load() != 3 || hits.Load() != 3 {
		t.Errorf("events start/done/hit = %d/%d/%d, want 3/3/3",
			starts.Load(), dones.Load(), hits.Load())
	}
}

func TestStandaloneMatchesDirectSimulation(t *testing.T) {
	// The engine's default executor must equal building the system by
	// hand with the derived seed — memoization never changes results.
	job := Job{Protocol: "snoop-ring", Benchmark: "WATER", CPUs: 8,
		ProcCyclePS: int64(5 * sim.Nanosecond), DataRefsPerCPU: 400, Seed: 3}
	direct, err := runStandalone(job, obs.Config{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	res, err := New(Options{Workers: 4}).RunOne(job)
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics().ExecTime != direct.ExecTime ||
		res.Metrics().MissLatency.Value() != direct.MissLatency.Value() {
		t.Error("engine result differs from direct simulation")
	}
	if res.Summary().ProcUtil != direct.ProcUtil() {
		t.Error("summary does not match metrics")
	}
}
