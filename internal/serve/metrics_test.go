package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"regexp"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/obs/reqtrace"
	"repro/internal/sweep"
	"repro/internal/tenant"
)

// expositionLine matches one Prometheus text-format sample:
// name{labels} value — where the label block is optional and the value
// is a float, integer, or +Inf.
var expositionLine = regexp.MustCompile(
	`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[a-zA-Z_][a-zA-Z0-9_]*="[^"\n]*"(,[a-zA-Z_][a-zA-Z0-9_]*="[^"\n]*")*\})? (-?[0-9]+(\.[0-9]+)?([eE][-+]?[0-9]+)?|\+Inf|NaN)$`)

// TestMetricsExpositionFormat fetches /metrics after real traffic and
// checks the contract the satellite fix pinned down: every sample line
// parses as the text exposition format, every metric is named
// ringsim_<subsystem>_..., and every sample is preceded by HELP/TYPE
// headers for its family.
func TestMetricsExpositionFormat(t *testing.T) {
	fake := &fakeExecutor{}
	_, ts := newTestServer(t, fake, Options{})

	// Generate some traffic so counters and histograms are populated.
	postJob(t, ts.URL, testJob(1), "")
	postJob(t, ts.URL, testJob(1), "")
	if resp, err := http.Get(ts.URL + "/healthz"); err == nil {
		resp.Body.Close()
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)

	declared := map[string]bool{} // families with HELP+TYPE seen
	samples := 0
	sc := bufio.NewScanner(bytes.NewReader(buf.Bytes()))
	for sc.Scan() {
		line := sc.Text()
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# HELP ") || strings.HasPrefix(line, "# TYPE ") {
			fields := strings.Fields(line)
			if len(fields) < 4 {
				t.Errorf("malformed header: %q", line)
				continue
			}
			declared[fields[2]] = true
			continue
		}
		if !expositionLine.MatchString(line) {
			t.Errorf("line does not parse as exposition format: %q", line)
			continue
		}
		samples++
		name := line[:strings.IndexAny(line, "{ ")]
		if !strings.HasPrefix(name, "ringsim_") {
			t.Errorf("metric %q does not follow ringsim_<subsystem>_<name>_<unit>", name)
		}
		sub := strings.SplitN(strings.TrimPrefix(name, "ringsim_"), "_", 2)[0]
		switch sub {
		case "serve", "engine", "sim", "obs", "tenant", "build", "reqtrace", "cluster", "fleet":
		default:
			t.Errorf("metric %q has unknown subsystem %q", name, sub)
		}
		// Histogram sample suffixes belong to the family name.
		family := name
		for _, suf := range []string{"_bucket", "_sum", "_count"} {
			family = strings.TrimSuffix(family, suf)
		}
		if !declared[family] && !declared[name] {
			t.Errorf("sample %q has no preceding HELP/TYPE header", name)
		}
	}
	if samples == 0 {
		t.Fatal("no samples on /metrics")
	}
	for _, want := range []string{
		"ringsim_serve_requests_total",
		"ringsim_serve_request_seconds",
		"ringsim_engine_jobs_total",
		"ringsim_engine_events_fired_total",
		"ringsim_engine_event_slab_max",
		"ringsim_sim_parallel_runs_total",
		"ringsim_sim_parallel_cross_windows_total",
		"ringsim_sim_parallel_window_width_ps",
		"ringsim_sim_parallel_barrier_stall_ns_total",
		"ringsim_obs_spans_total",
	} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("metric family %s missing from /metrics", want)
		}
	}
}

// TestResultTraceEndpoint exercises GET /v1/results/{hash}/trace over
// a real traced simulation: the export must be Perfetto-loadable JSON,
// and untraced or unknown results must 404.
func TestResultTraceEndpoint(t *testing.T) {
	eng := sweep.New(sweep.Options{Workers: 2, Trace: obs.Config{SampleEvery: 16}})
	_, ts := newTestServer(t, nil, Options{Engine: eng})

	job := sweep.Job{Benchmark: "MP3D", CPUs: 8, DataRefsPerCPU: 200, Seed: 4}
	resp, raw := postJob(t, ts.URL, job, "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("submit status %d: %s", resp.StatusCode, raw)
	}
	hash := decodeJobResult(t, raw).Hash

	get, err := http.Get(ts.URL + "/v1/results/" + hash + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	defer get.Body.Close()
	if get.StatusCode != http.StatusOK {
		t.Fatalf("trace status %d", get.StatusCode)
	}
	if ct := get.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("Content-Type = %q", ct)
	}
	var doc struct {
		DisplayTimeUnit string           `json:"displayTimeUnit"`
		TraceEvents     []map[string]any `json:"traceEvents"`
	}
	if err := json.NewDecoder(get.Body).Decode(&doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("trace has no events")
	}

	// Unknown hash and malformed hash.
	if r, err := http.Get(ts.URL + "/v1/results/" + strings.Repeat("0", 64) + "/trace"); err == nil {
		if r.StatusCode != http.StatusNotFound {
			t.Errorf("unknown hash trace status %d, want 404", r.StatusCode)
		}
		r.Body.Close()
	}
	if r, err := http.Get(ts.URL + "/v1/results/nope/trace"); err == nil {
		if r.StatusCode != http.StatusBadRequest {
			t.Errorf("bad hash trace status %d, want 400", r.StatusCode)
		}
		r.Body.Close()
	}

	// An untraced engine serves results but not traces.
	fake := &fakeExecutor{}
	_, ts2 := newTestServer(t, fake, Options{})
	resp, raw = postJob(t, ts2.URL, testJob(2), "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("untraced submit status %d: %s", resp.StatusCode, raw)
	}
	h2 := decodeJobResult(t, raw).Hash
	if r, err := http.Get(ts2.URL + "/v1/results/" + h2 + "/trace"); err == nil {
		if r.StatusCode != http.StatusNotFound {
			t.Errorf("untraced result trace status %d, want 404", r.StatusCode)
		}
		r.Body.Close()
	}
}

// TestBuildInfoMetricShape pins the ringsim_build_info row: a gauge
// of constant 1 carrying the binary's identity as labels.
func TestBuildInfoMetricShape(t *testing.T) {
	s, _ := newTestServer(t, &fakeExecutor{}, Options{})
	var b strings.Builder
	s.renderMetrics(&b)
	out := b.String()
	for _, want := range []string{
		"# HELP ringsim_build_info ",
		"# TYPE ringsim_build_info gauge",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
	re := regexp.MustCompile(`(?m)^ringsim_build_info\{version="[^"]+",goversion="go[^"]+",revision="[^"]*"\} 1$`)
	if !re.MatchString(out) {
		t.Errorf("sample line malformed:\n%s", out)
	}
}

// TestMetricsGolden pins the shape of /metrics — every HELP and TYPE
// line, then each sample's name and labels, in order — against a
// golden captured from the hand-written exposition the descriptor
// tables replaced. Every conditional family is on: a traced engine
// (span latency), a tenant registry, and a request tracer. Sample
// values depend on timing and are masked.
func TestMetricsGolden(t *testing.T) {
	eng := sweep.New(sweep.Options{Workers: 2, Trace: obs.Config{SampleEvery: 16}})
	reg := mustRegistry(t, []tenant.Tenant{{ID: "acme", Keys: []string{"acme-key"}}}, true)
	_, ts := newTestServer(t, nil, Options{Engine: eng, Tenants: reg, ReqTracer: reqtrace.NewTracer("serve", 64)})

	job := sweep.Job{Benchmark: "MP3D", CPUs: 8, DataRefsPerCPU: 200, Seed: 4}
	postJob(t, ts.URL, job, "")
	postJob(t, ts.URL, job, "")
	postJobAs(t, ts.URL, "acme-key", testJob(5))
	if resp, err := http.Get(ts.URL + "/healthz"); err == nil {
		resp.Body.Close()
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	page, _ := io.ReadAll(resp.Body)
	compareGolden(t, "testdata/metrics.golden", maskExposition(string(page)))
}

var buildLabel = regexp.MustCompile(`="[^"]*"`)

// maskExposition keeps an exposition page's HELP/TYPE lines and each
// sample's name and labels, dropping the values. The build identity
// labels vary with the toolchain and checkout, so they are masked too.
func maskExposition(page string) string {
	var b strings.Builder
	for _, line := range strings.Split(strings.TrimRight(page, "\n"), "\n") {
		if !strings.HasPrefix(line, "#") {
			line = line[:strings.LastIndexByte(line, ' ')]
		}
		if strings.HasPrefix(line, "ringsim_build_info{") {
			line = buildLabel.ReplaceAllString(line, `="*"`)
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
