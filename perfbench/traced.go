package main

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/sweep"
	"repro/internal/workload"
)

// The traced runs. Each repeats the workload's operation untraced and
// then under the profiles (trace.overhead_frac compares the two) and
// attributes the profiled run to layers (core.unattributed_frac is what
// no layer covers). Then it measures the whole ledger: every per-layer
// metric on the workload that layer belongs to.

// newLayerMetrics starts every per-layer metric at 0; the ledger sets
// each one.
func newLayerMetrics() map[string]float64 {
	m := map[string]float64{}
	for _, d := range perLayer {
		m[d.Name] = 0
	}
	return m
}

// traceAccounting fills the two traced-run accounting metrics and
// prints the profiled operation's self time by layer.
func traceAccounting(o opts, m map[string]float64, untraced, traced float64, cost *layerCost) {
	m["trace.overhead_frac"] = traced/untraced - 1
	m["core.unattributed_frac"] = ratio(cost.TotalNS-cost.attributedNS(), cost.TotalNS)
	layers := make([]string, 0, len(cost.NS))
	for l := range cost.NS {
		layers = append(layers, l)
	}
	sort.Slice(layers, func(i, j int) bool { return cost.NS[layers[i]] > cost.NS[layers[j]] })
	fmt.Fprintf(o.Log, "self time by layer, profiled operation (%.0f ms CPU):\n", cost.TotalNS/1e6)
	for _, l := range append(layers, "") {
		name, ns := l, cost.NS[l]
		if l == "" {
			name, ns = "(unattributed)", cost.TotalNS-cost.attributedNS()
		}
		fmt.Fprintf(o.Log, "  %-14s %10.1f ms %5.1f%%  %12.0f allocs\n", name, ns/1e6, 100*ratio(ns, cost.TotalNS), cost.Objs[l])
	}
}

// sweepLayer times Job.Hash over jobs and RunOneCtx of cached on eng,
// computing it first if eng does not hold it.
func sweepLayer(m map[string]float64, eng *sweep.Engine, jobs []sweep.Job, cached sweep.Job) error {
	const reps = 2000
	t0 := time.Now()
	for r := 0; r < reps; r++ {
		_ = jobs[r%len(jobs)].Hash()
	}
	m["sweep.hash_ns"] = float64(time.Since(t0).Nanoseconds()) / reps
	ctx := context.Background()
	if _, err := eng.RunOne(cached); err != nil {
		return err
	}
	t0 = time.Now()
	for r := 0; r < reps; r++ {
		if _, src, err := eng.RunOneCtx(ctx, cached); err != nil || src == sweep.SourceComputed {
			return fmt.Errorf("cached job: source %v, err %v", src, err)
		}
	}
	m["sweep.hit_ns"] = float64(time.Since(t0).Nanoseconds()) / reps
	return nil
}

// sweepStats fills the engine-counter sweep metrics from the engines
// of the runs' servers.
func sweepStats(m map[string]float64, runs []sessionRun) {
	var exec time.Duration
	var computed, hits, done int
	for _, r := range runs {
		exec += r.stats.ExecWall
		computed += r.stats.Computed
		hits += r.stats.CacheHits + r.stats.DiskHits
		done += r.stats.Done
	}
	m["sweep.compute_ms_per_job"] = ratio(float64(exec.Nanoseconds())/1e6, float64(computed))
	m["sweep.hit_ratio"] = ratio(float64(hits), float64(done))
}

func tracePaperSuite(o opts) (*outcome, error) {
	oc := &outcome{Metrics: newLayerMetrics()}
	chk := newArtifactChecker(o, wlSuite)
	var untraced float64
	for i := 0; i < 2; i++ { // the first is the warm-up
		t0 := time.Now()
		s := newSuiteRun(o)
		s.evaluate()
		untraced = time.Since(t0).Seconds()
		oc.Attempted++
		chk.check(oc, fmt.Sprintf("untraced suite %d output", i), []byte(s.text))
	}
	ts := newSuiteRun(o)
	var traced float64
	cost, err := profiled(func() {
		t0 := time.Now()
		ts.evaluate()
		traced = time.Since(t0).Seconds()
	})
	if err != nil {
		return nil, err
	}
	oc.Attempted++
	chk.check(oc, "traced suite output", []byte(ts.text))
	traceAccounting(o, oc.Metrics, untraced, traced, cost)
	return oc, ledger(o, oc, ts.text, nil, nil)
}

func traceSharded(o opts) (*outcome, error) {
	oc := &outcome{Metrics: newLayerMetrics()}
	runs, err := shardedOps(o)
	if err != nil {
		return nil, err
	}
	var traced float64
	var runErr error
	cost, err := profiled(func() {
		t0 := time.Now()
		var art []byte
		_, art, runErr = runShardedOnce(o, shardParallel)
		traced = time.Since(t0).Seconds()
		runs.pars = append(runs.pars, art)
	})
	if err == nil {
		err = runErr
	}
	if err != nil {
		return nil, err
	}
	traceAccounting(o, oc.Metrics, runs.wall, traced, cost)
	return oc, ledger(o, oc, "", runs, nil)
}

func traceServeMix(o opts) (*outcome, error) {
	oc := &outcome{Metrics: newLayerMetrics()}
	f, _, err := newServeFixture(o)
	if err != nil {
		return nil, err
	}
	window := o.Seconds / 2
	plain, err := f.sessions(window, o.MinOps)
	if err != nil {
		return nil, err
	}
	var profiledRuns []sessionRun
	var runErr error
	cost, err := profiled(func() { profiledRuns, runErr = f.sessions(window, o.MinOps) })
	if err == nil {
		err = runErr
	}
	if err != nil {
		return nil, err
	}
	traceAccounting(o, oc.Metrics, secsPerRequest(plain), secsPerRequest(profiledRuns), cost)
	return oc, ledger(o, oc, "", nil, &serveRuns{f, append(plain, profiledRuns...)})
}

// secsPerRequest is the host time of the runs' sessions per request.
func secsPerRequest(runs []sessionRun) float64 {
	var wall float64
	var n int
	for _, r := range runs {
		wall += r.wall
		n += len(r.samples)
	}
	return ratio(wall, float64(n))
}

// ledger measures every layer on the workload the layer belongs to (the
// On column of perLayer), so each traced run reports the whole ledger.
// The traced workload passes in what its own runs already measured:
// the suite's text, the sharded runs, or the serve fixture and its
// windows; the other workloads are run here at their usual size.
func ledger(o opts, oc *outcome, suiteText string, sh *shardRuns, sv *serveRuns) error {
	if err := suiteLayers(o, oc, suiteText); err != nil {
		return err
	}
	if err := shardedLayers(o, oc, sh); err != nil {
		return err
	}
	return serveLayers(o, oc, sv)
}

// suiteLayers replays the suite's calibration machines, every protocol
// on the 16-CPU SPLASH profiles, and reads the simulated accuracy from
// the suite's text, evaluating the suite if text is empty.
func suiteLayers(o opts, oc *outcome, text string) error {
	m := oc.Metrics
	rp := newReplay()
	for _, proto := range []core.Protocol{core.SnoopRing, core.DirectoryRing, core.SCIRing, core.SnoopBus, core.HierRing} {
		for _, bench := range workload.SPLASHNames() {
			p := simPoint{
				cfg:  core.Config{Protocol: proto, Seed: o.Seed, WarmupDataRefs: 600},
				wcfg: workload.Config{Profile: workload.MustProfile(bench, 16), DataRefsPerCPU: o.SuiteRefs + 600, Seed: o.Seed},
			}
			if err := rp.point(p, true); err != nil {
				return err
			}
		}
	}
	rp.metrics(m)
	if text == "" {
		s := newSuiteRun(o)
		s.evaluate()
		text = s.text
		oc.Attempted++
		newArtifactChecker(o, wlSuite).check(oc, "suite output", []byte(text))
	}
	m["workload.table2_err_pct"], m["analytic.model_err_pct"] = suiteAccuracy(text)
	return nil
}

// shardRuns is the sharded workload's runs at 2 shards: the timed
// run's wall and metrics, and every run's artifact.
type shardRuns struct {
	wall float64
	m    *core.Metrics
	pars [][]byte
}

// shardedOps runs the sharded workload twice at 2 shards, the first as
// the warm-up, and keeps the second's wall and metrics.
func shardedOps(o opts) (*shardRuns, error) {
	runs := &shardRuns{}
	for i := 0; i < 2; i++ {
		t0 := time.Now()
		m, art, err := runShardedOnce(o, shardParallel)
		if err != nil {
			return nil, err
		}
		runs.wall, runs.m, runs.pars = time.Since(t0).Seconds(), m, append(runs.pars, art)
	}
	return runs, nil
}

// shardedLayers measures the partitioned kernel against the sequential
// run, checks every 2-shard artifact against it, and replays the
// sequential machine for the segmented directory's costs.
func shardedLayers(o opts, oc *outcome, runs *shardRuns) error {
	m := oc.Metrics
	if runs == nil {
		var err error
		if runs, err = shardedOps(o); err != nil {
			return err
		}
	}
	t0 := time.Now()
	_, seq, err := runShardedOnce(o, 1)
	if err != nil {
		return err
	}
	seqWall := time.Since(t0).Seconds()
	oc.Attempted += len(runs.pars) + 1
	newArtifactChecker(o, wlSharded).check(oc, "sequential run", seq)
	for i, a := range runs.pars {
		if !bytes.Equal(a, seq) {
			oc.fail("%s seed %d: %d-shard run %d differs from the sequential run", wlSharded, o.Seed, shardParallel, i)
		}
	}

	cfg, wcfg := shardedConfig(o, 1)
	rp := newReplay()
	if err := rp.point(simPoint{cfg, wcfg}, false); err != nil {
		return err
	}
	if !bytes.Equal(rp.artifacts[0], seq) {
		oc.fail("%s seed %d: replay through core.NewSystem differs from core.Run", wlSharded, o.Seed)
	}
	seg := map[string]float64{}
	rp.metrics(seg)
	for k, v := range seg {
		if strings.HasPrefix(k, "segdir.") {
			m[k] = v
		}
	}

	ps := runs.m.Parallel
	var stall float64
	for _, ns := range ps.BarrierStallNS {
		stall += float64(ns)
	}
	m["par.windows"] = float64(ps.Windows)
	m["par.cross_events_per_window"] = ratio(float64(ps.CrossEvents), float64(ps.Windows))
	m["par.barrier_stall_frac"] = stall / 1e9 / (float64(ps.Partitions) * runs.wall)
	m["par.ns_per_window"] = ratio((runs.wall-seqWall)*1e9, float64(ps.Windows))
	m["par.seq_wall_s"] = seqWall
	m["par.speedup"] = seqWall / runs.wall
	return nil
}

// serveRuns is a serve fixture and the ringload runs made with it.
type serveRuns struct {
	f    *serveFixture
	runs []sessionRun
}

// serveLayers measures the serving, request-tracing and sweep layers
// from the ringload runs and from one more run on a server kept open
// for in-process timings, and verifies every request.
func serveLayers(o opts, oc *outcome, sr *serveRuns) error {
	m := oc.Metrics
	if sr == nil {
		f, _, err := newServeFixture(o)
		if err != nil {
			return err
		}
		runs, err := f.sessions(o.Seconds/6, o.MinOps)
		if err != nil {
			return err
		}
		sr = &serveRuns{f, runs}
	}
	f := sr.f
	s, err := startServer()
	if err != nil {
		return err
	}
	defer s.close()
	runs := append(sr.runs, f.session(s))

	var admitUS []float64
	for _, r := range runs {
		admitUS = append(admitUS, r.admitUS...)
		for _, smp := range r.samples {
			if smp.status == http.StatusTooManyRequests || smp.status == http.StatusServiceUnavailable {
				m["serve.rejected"]++
			}
		}
	}
	m["serve.admit_wait_ms"] = mean(admitUS) / 1e3
	sweepStats(m, runs)
	if err := handlerLayer(m, f, s); err != nil {
		return err
	}
	if err := sweepLayer(m, s.eng, f.pool, f.pool[0]); err != nil {
		return err
	}
	f.checkPool(oc)
	verify(oc, runs)
	return nil
}

// handlerLayer times the serving layer in process, with no socket: a
// cached job through Handler().ServeHTTP with the request tracer on and
// off, and a /metrics render.
func handlerLayer(m map[string]float64, f *serveFixture, s *server) error {
	off, _ := newServerHandler(s.eng, false)
	hit := func(h http.Handler) (float64, error) {
		const reps = 500
		t0 := time.Now()
		for r := 0; r < reps; r++ {
			i := r % len(f.bodies)
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/jobs?full=1", bytes.NewReader(f.bodies[i])))
			if _, err := checkJobResponse(rec.Code, rec.Body.Bytes(), f.want[i]); err != nil {
				return 0, err
			}
		}
		return float64(time.Since(t0).Microseconds()) / reps, nil
	}
	// Alternate the two handlers and keep each one's median round, so
	// drift in the host's speed hits both alike.
	var on, plain []float64
	for round := 0; round < 9; round++ {
		a, err := hit(s.srv.Handler())
		if err != nil {
			return err
		}
		b, err := hit(off.Handler())
		if err != nil {
			return err
		}
		on, plain = append(on, a), append(plain, b)
	}
	m["serve.handler_us_per_hit"] = median(on)
	m["reqtrace.us_per_request"] = median(on) - median(plain)

	const renders = 50
	t0 := time.Now()
	for r := 0; r < renders; r++ {
		rec := httptest.NewRecorder()
		s.srv.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
		if rec.Code != http.StatusOK {
			return fmt.Errorf("/metrics: status %d", rec.Code)
		}
	}
	m["serve.metrics_render_ms"] = float64(time.Since(t0).Microseconds()) / 1e3 / renders
	return nil
}
