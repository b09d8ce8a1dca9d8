package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/obs/reqtrace"
	olog "repro/internal/obs/slog"
	"repro/internal/sweep"
)

// obsFleet is an in-process cluster wired for observability: traced
// coordinator and workers, worker-side log capture, and a public
// /metrics page on each worker's advertised address (the topology
// ringserved's worker mode serves: internal API and public metrics on
// one port).
type obsFleet struct {
	*testFleet
	tracer  *reqtrace.Tracer
	logs    []*obsLogBuf
	engines []*sweep.Engine
}

type obsLogBuf struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *obsLogBuf) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *obsLogBuf) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

func startObsFleet(t *testing.T, n int) *obsFleet {
	t.Helper()
	rt := reqtrace.NewTracer("coordinator", 64)
	coord := NewCoordinator(CoordinatorOptions{
		HeartbeatTTL: 10 * time.Second,
		ExecTimeout:  30 * time.Second,
		MaxAttempts:  3,
		RetryBackoff: time.Millisecond,
		Tracer:       rt,
	})
	coordSrv := httptest.NewServer(coord.Handler())
	t.Cleanup(coordSrv.Close)
	coordEng := sweep.New(sweep.Options{Workers: 8, Executors: map[string]sweep.Executor{"": coord.Execute}})
	coord.BindEngine(coordEng)

	f := &obsFleet{
		testFleet: &testFleet{coord: coord, coordEng: coordEng, coordSrv: coordSrv},
		tracer:    rt,
	}
	for i := 0; i < n; i++ {
		id := "w" + string(rune('A'+i))
		// Worker engines trace every coherence span so obsagg has
		// aggregates to federate.
		eng := sweep.New(sweep.Options{Workers: 2, Trace: obs.Config{SampleEvery: 1}})
		lb := &obsLogBuf{}
		w, err := NewWorker(WorkerOptions{
			ID:     id,
			Engine: eng,
			Tracer: reqtrace.NewTracer("worker:"+id, 64),
			Logger: olog.New(lb, 0, "worker"),
		})
		if err != nil {
			t.Fatalf("NewWorker %s: %v", id, err)
		}
		// One mux per worker: internal cluster plane plus a public
		// metrics page, as ringserved -worker serves them.
		jobs := i + 1 // distinct per worker so relabeling is checkable
		mux := http.NewServeMux()
		mux.Handle("/internal/v1/", w.Handler())
		mux.HandleFunc("GET /metrics", func(rw http.ResponseWriter, r *http.Request) {
			fmt.Fprintln(rw, "# HELP ringsim_engine_jobs_total Jobs completed by the engine.")
			fmt.Fprintln(rw, "# TYPE ringsim_engine_jobs_total counter")
			fmt.Fprintf(rw, "ringsim_engine_jobs_total %d\n", jobs)
			fmt.Fprintln(rw, "# HELP ringsim_serve_requests_total Served requests by endpoint and status code.")
			fmt.Fprintln(rw, "# TYPE ringsim_serve_requests_total counter")
			fmt.Fprintf(rw, "ringsim_serve_requests_total{endpoint=\"jobs\",code=\"200\"} %d\n", jobs)
		})
		srv := httptest.NewServer(mux)
		t.Cleanup(srv.Close)
		f.join(t, id, srv.URL, eng.Workers())
		f.workers = append(f.workers, &fleetWorker{w: w, eng: eng, srv: srv})
		f.logs = append(f.logs, lb)
		f.engines = append(f.engines, eng)
	}
	return f
}

// TestClusterTraceConnectedAcrossHop pins the tentpole's cross-process
// contract: a job whose TraceParent names a serve-side span yields a
// dispatch span on the coordinator and an exec span on the worker,
// parented into one connected tree in the coordinator's store — and
// the worker logged the exec with the request ID and job hash.
func TestClusterTraceConnectedAcrossHop(t *testing.T) {
	f := startObsFleet(t, 2)
	const reqID = "aabbccdd00112233"
	job := sweep.Job{CPUs: 8, DataRefsPerCPU: 200, Seed: 11, TraceParent: reqID + ":root-1"}

	res, _, err := f.coordEng.RunOneCtx(context.Background(), job)
	if err != nil {
		t.Fatalf("RunOneCtx: %v", err)
	}

	doc, ok := f.tracer.Get(reqID)
	if !ok {
		t.Fatal("coordinator store has no trace for the request")
	}
	var dispatch, exec *reqtrace.SpanData
	for i := range doc.Spans {
		switch doc.Spans[i].Name {
		case "dispatch":
			dispatch = &doc.Spans[i]
		case "exec":
			exec = &doc.Spans[i]
		}
	}
	if dispatch == nil || exec == nil {
		t.Fatalf("spans = %+v, want dispatch and exec", doc.Spans)
	}
	if dispatch.Parent != "root-1" {
		t.Errorf("dispatch parent = %q, want root-1", dispatch.Parent)
	}
	if dispatch.Service != "coordinator" {
		t.Errorf("dispatch service = %q", dispatch.Service)
	}
	if exec.Parent != dispatch.ID {
		t.Errorf("exec parent = %q, want dispatch id %q", exec.Parent, dispatch.ID)
	}
	if !strings.HasPrefix(exec.Service, "worker:") {
		t.Errorf("exec service = %q, want worker:*", exec.Service)
	}
	if exec.Attrs["hash"] != res.Hash {
		t.Errorf("exec hash attr = %q, want %q", exec.Attrs["hash"], res.Hash)
	}
	if got := dispatch.Attrs["outcome"]; got != "home" && got != "forward" {
		t.Errorf("dispatch outcome = %q", got)
	}
	if dispatch.DurUS < exec.DurUS {
		t.Errorf("dispatch (%dµs) shorter than the exec it contains (%dµs)", dispatch.DurUS, exec.DurUS)
	}

	// The executing worker logged the exec with the joinable keys.
	workerID := dispatch.Attrs["worker"]
	var logged bool
	for i, fw := range f.workers {
		if fw.w.ID() != workerID {
			continue
		}
		for _, l := range strings.Split(strings.TrimSpace(f.logs[i].String()), "\n") {
			var line map[string]any
			if json.Unmarshal([]byte(l), &line) != nil {
				continue
			}
			if line["msg"] == "exec" && line["request_id"] == reqID && line["job_hash"] == res.Hash && line["worker"] == workerID {
				logged = true
			}
		}
	}
	if !logged {
		t.Errorf("worker %s has no exec log line joining request %s to hash %s", workerID, reqID, res.Hash)
	}

	// Untraced jobs must not record dispatch spans.
	plain := sweep.Job{CPUs: 8, DataRefsPerCPU: 200, Seed: 12}
	if _, _, err := f.coordEng.RunOneCtx(context.Background(), plain); err != nil {
		t.Fatalf("untraced run: %v", err)
	}
	before := len(doc.Spans)
	if doc2, ok := f.tracer.Get(reqID); ok && len(doc2.Spans) != before {
		t.Errorf("untraced job grew the traced request's tree: %d -> %d spans", before, len(doc2.Spans))
	}
}

// TestClusterMetricsFederation pins the federation contract over a
// live coordinator+2-worker fleet: every line of the merged page
// parses as the text exposition format, worker pages carry injected
// worker labels, HELP/TYPE headers appear once per family, and the
// fleet histograms preserve the workers' span counts exactly.
func TestClusterMetricsFederation(t *testing.T) {
	f := startObsFleet(t, 2)
	for seed := uint64(1); seed <= 6; seed++ {
		if _, _, err := f.coordEng.RunOneCtx(context.Background(), sweep.Job{CPUs: 8, DataRefsPerCPU: 200, Seed: seed}); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}

	var out bytes.Buffer
	f.coord.FederateMetrics(context.Background(), f.coord.WriteMetrics, &out)
	text := out.String()

	compareGolden(t, "testdata/federated_metrics.golden", maskExposition(text))

	// Every sample parses; every family is declared once, with exactly
	// one TYPE, including families only a worker page carries.
	sampleRe := regexp.MustCompile(
		`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[a-zA-Z_][a-zA-Z0-9_]*="[^"\n]*"(,[a-zA-Z_][a-zA-Z0-9_]*="[^"\n]*")*\})? (-?[0-9]+(\.[0-9]+)?([eE][-+]?[0-9]+)?|\+Inf|NaN)$`)
	declared, typed := map[string]int{}, map[string]int{}
	for _, line := range strings.Split(strings.TrimRight(text, "\n"), "\n") {
		if strings.HasPrefix(line, "# HELP ") {
			declared[strings.Fields(line)[2]]++
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			typed[strings.Fields(line)[2]]++
			continue
		}
		if strings.HasPrefix(line, "#") || line == "" {
			continue
		}
		if !sampleRe.MatchString(line) {
			t.Errorf("federated line does not parse: %q", line)
		}
	}
	for family, n := range declared {
		if n > 1 {
			t.Errorf("family %s declared %d times", family, n)
		}
		if typed[family] != 1 {
			t.Errorf("family %s has %d TYPE lines, want 1", family, typed[family])
		}
	}

	// Worker pages are present, relabeled, with per-worker values
	// intact (wA serves 1, wB serves 2 in the stub pages).
	for i, want := range []string{
		`ringsim_engine_jobs_total{worker="wA"} 1`,
		`ringsim_engine_jobs_total{worker="wB"} 2`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("federated page missing %q", want)
		}
		_ = i
	}
	if !strings.Contains(text, `ringsim_serve_requests_total{worker="wA",endpoint="jobs",code="200"} 1`) {
		t.Error("labeled sample did not get the worker label injected first")
	}

	// Fleet histograms preserve counts: summed per-class span counts
	// across worker engines equal the federated totals.
	wantSpans := map[string]uint64{}
	var wantTotal uint64
	for _, eng := range f.engines {
		for _, a := range eng.TraceAgg() {
			wantSpans[a.Class] += a.Spans
			wantTotal += a.Spans
		}
	}
	if wantTotal == 0 {
		t.Fatal("worker engines observed no spans; federation test is vacuous")
	}
	var gotTotal uint64
	for cl, want := range wantSpans {
		var got uint64
		if n, _ := fmt.Sscanf(findLine(t, text, fmt.Sprintf("ringsim_fleet_spans_total{class=%q} ", cl)),
			fmt.Sprintf("ringsim_fleet_spans_total{class=%q} %%d", cl), &got); n != 1 {
			t.Errorf("class %s: fleet spans series missing", cl)
			continue
		}
		if got != want {
			t.Errorf("class %s: fleet spans = %d, want %d (merge lost counts)", cl, got, want)
		}
		var histN uint64
		fmt.Sscanf(findLine(t, text, fmt.Sprintf("ringsim_fleet_span_latency_ns_count{class=%q} ", cl)),
			fmt.Sprintf("ringsim_fleet_span_latency_ns_count{class=%q} %%d", cl), &histN)
		if histN != want {
			t.Errorf("class %s: merged histogram count = %d, want %d", cl, histN, want)
		}
		gotTotal += got
	}
	_ = gotTotal

	// Status doc: both workers live, the dispatches accounted.
	st := f.coord.Status()
	if st.Live != 2 || st.Down != 0 {
		t.Errorf("status live/down = %d/%d, want 2/0", st.Live, st.Down)
	}
	if st.Dispatches < 6 {
		t.Errorf("status dispatches = %d, want >= 6", st.Dispatches)
	}
	if len(st.Workers) != 2 {
		t.Errorf("status workers = %d, want 2", len(st.Workers))
	}
	for _, m := range st.Workers {
		if m.HeartbeatAge < 0 {
			t.Errorf("worker %s heartbeat age negative", m.ID)
		}
	}

	// A dead worker degrades the page, never fails it.
	f.workers[0].srv.Close()
	f.coord.reg.markDown("wA")
	var degraded bytes.Buffer
	f.coord.FederateMetrics(context.Background(), f.coord.WriteMetrics, &degraded)
	if strings.Contains(degraded.String(), `ringsim_engine_jobs_total{worker="wA"}`) {
		t.Error("down worker still scraped")
	}
	if !strings.Contains(degraded.String(), `ringsim_engine_jobs_total{worker="wB"} 2`) {
		t.Error("surviving worker missing from degraded page")
	}
}

// findLine returns the first line with the given prefix, or "".
func findLine(t *testing.T, text, prefix string) string {
	t.Helper()
	for _, line := range strings.Split(text, "\n") {
		if strings.HasPrefix(line, prefix) {
			return line
		}
	}
	return ""
}

// maskExposition keeps an exposition page's HELP/TYPE lines and each
// sample's name and labels, dropping the values, which depend on
// timing.
func maskExposition(page string) string {
	var b strings.Builder
	for _, line := range strings.Split(strings.TrimRight(page, "\n"), "\n") {
		if !strings.HasPrefix(line, "#") {
			line = line[:strings.LastIndexByte(line, ' ')]
		}
		b.WriteString(line + "\n")
	}
	return b.String()
}

// compareGolden reports the first line where got departs from the
// golden file.
func compareGolden(t *testing.T, path, got string) {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(string(raw), "\n")
	lines := strings.Split(got, "\n")
	for i := 0; i < len(want) || i < len(lines); i++ {
		var w, g string
		if i < len(want) {
			w = want[i]
		}
		if i < len(lines) {
			g = lines[i]
		}
		if w != g {
			t.Fatalf("%s line %d:\n got  %q\n want %q", path, i+1, g, w)
		}
	}
}
