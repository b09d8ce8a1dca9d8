package main

import (
	"encoding/json"
	"io"
	"os"
	"regexp"
	"testing"
)

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func TestMetricNamesAndUnits(t *testing.T) {
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !nameRE.MatchString(d.Name) {
			t.Errorf("metric name %q does not match %s", d.Name, nameRE)
		}
		if !unitRE.MatchString(d.Unit) {
			t.Errorf("metric %s: unit %q does not match %s", d.Name, d.Unit, unitRE)
		}
		if d.Better != "lower" && d.Better != "higher" {
			t.Errorf("metric %s: better is %q", d.Name, d.Better)
		}
		if seen[d.Name] {
			t.Errorf("metric %s declared twice", d.Name)
		}
		seen[d.Name] = true
	}
}

// benchmarkFile is the part of BENCHMARK.json, at the repository
// root, that must agree with the harness.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func TestBenchmarkJSONMatchesTheHarness(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	workloadNames := map[string]bool{}
	for _, w := range bf.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %s is not run by the harness", w.Name)
		}
		workloadNames[w.Name] = true
	}
	if len(bf.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the harness runs %d", len(bf.Workloads), len(workloads))
	}

	if len(bf.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json lists %d end-to-end metrics, the harness reports %d", len(bf.EndToEnd), len(endToEnd))
	}
	e2e := map[string]bool{}
	var setupBound, maxOther float64
	for i, m := range bf.EndToEnd {
		d := endToEnd[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
			t.Errorf("end_to_end[%d] is %s/%s/%s, the harness reports %s/%s/%s", i, m.Name, m.Unit, m.Better, d.Name, d.Unit, d.Better)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", m.Name, m.Bound)
		}
		if m.Name == "setup_s" {
			setupBound = m.Bound
		} else if m.Bound > maxOther {
			maxOther = m.Bound
		}
		e2e[m.Name] = true
	}
	if setupBound < maxOther {
		t.Errorf("setup_s bound %g is not the largest (%g)", setupBound, maxOther)
	}

	if len(bf.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, the harness reports %d", len(bf.PerLayer), len(perLayer))
	}
	for i, m := range bf.PerLayer {
		d := perLayer[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
			t.Errorf("per_layer[%d] is %s/%s/%s, the harness reports %s/%s/%s", i, m.Name, m.Unit, m.Better, d.Name, d.Unit, d.Better)
		}
		// Every layer metric names the end-to-end metric and the
		// workload it should move.
		if !e2e[d.Moves] {
			t.Errorf("%s moves %q, not an end-to-end metric", d.Name, d.Moves)
		}
		if !workloadNames[d.On] && d.On != onTraced {
			t.Errorf("%s moves %s on %q, not a workload", d.Name, d.Moves, d.On)
		}
	}
}

// tinyOpts shrinks every workload to a smoke-test size.
func tinyOpts() opts {
	o := defaultOpts()
	o.Seed = 3
	o.Seconds = 0.2
	o.SuiteRefs = 300
	o.ShardRefs = 400
	o.ServeRefs, o.ServeJobs, o.ServeRequests = 100, 4, 40
	o.SetupReps, o.SetupSeconds, o.MinOps = 1, 0, 1
	o.Log = io.Discard
	return o
}

func TestWorkloadsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for name, w := range workloads {
		for _, traced := range []bool{false, true} {
			o := tinyOpts()
			o.Trace = traced
			fn := w.run
			if traced {
				fn = w.traced
			}
			oc, err := fn(o)
			if err != nil {
				t.Fatalf("%s (traced %v): %v", name, traced, err)
			}
			rep, err := buildReport(oc, metricsFor(traced))
			if err != nil {
				t.Fatalf("%s (traced %v): %v", name, traced, err)
			}
			if rep.Failed != 0 || !rep.Correct {
				t.Errorf("%s (traced %v): fail_frac %d/%d: %v", name, traced, rep.Failed, rep.Attempted, oc.Problems)
			}
			if !traced {
				for n, v := range rep.Metrics {
					if v.Value <= 0 {
						t.Errorf("%s: end-to-end metric %s = %g, want > 0", name, n, v.Value)
					}
				}
			}
		}
	}
}

func TestArtifactCheckerCountsGoldenMismatch(t *testing.T) {
	o := defaultOpts()
	o.Seed, o.Log = 99, io.Discard
	goldens["test-workload"] = map[string]string{"99": sha([]byte("golden"))}
	defer delete(goldens, "test-workload")

	oc := &outcome{}
	chk := newArtifactChecker(o, "test-workload")
	chk.check(oc, "matching", []byte("golden"))
	chk.check(oc, "mismatching", []byte("other"))
	if oc.Failed != 1 {
		t.Fatalf("failed = %d, want 1 (only the mismatch)", oc.Failed)
	}

	// Without a golden the first artifact is the reference.
	o.Seed = 100
	oc = &outcome{}
	chk = newArtifactChecker(o, "test-workload")
	chk.check(oc, "first", []byte("a"))
	chk.check(oc, "same", []byte("a"))
	chk.check(oc, "different", []byte("b"))
	if oc.Failed != 1 {
		t.Fatalf("failed = %d, want 1", oc.Failed)
	}
}

func TestTailLeavesTenSamplesBeyond(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if v, pct := tail(xs); pct != 99 || v != 990 {
		t.Errorf("tail of 1..1000 = %g at p%d, want 990 at p99", v, pct)
	}
	if v, pct := tail(xs[:100]); pct != 90 || v != 90 {
		t.Errorf("tail of 1..100 = %g at p%d, want 90 at p90", v, pct)
	}
	if v, pct := tail(xs[:4]); pct != 100 || v != 4 {
		t.Errorf("tail of 1..4 = %g at p%d, want the maximum", v, pct)
	}
}

func TestLayerOf(t *testing.T) {
	for _, c := range []struct{ fn, file, want string }{
		{"repro/internal/snoop.(*Engine).miss.func1", "/x/internal/snoop/snoop.go", "snoop"},
		{"repro/internal/directory.(*SegEngine).Access", "/x/internal/directory/segmented.go", "segdir"},
		{"repro/internal/directory.(*Engine).Access", "/x/internal/directory/directory.go", "directory"},
		{"repro/internal/sim.(*ParKernel).Run", "/x/internal/sim/parallel.go", "par"},
		{"repro/internal/sim.(*Kernel).Run", "/x/internal/sim/kernel.go", "sim"},
		{"repro/internal/obs/reqtrace.(*Tracer).StartRoot", "/x/internal/obs/reqtrace/reqtrace.go", "reqtrace"},
		{"repro.Run", "/x/repro.go", "repro"},
		{"runtime.mallocgc", "/go/src/runtime/malloc.go", ""},
		{"main.run", "/x/perfbench/main.go", ""},
		{"repro/perfbench.run", "/x/perfbench/main.go", ""},
	} {
		if got := layerOf(c.fn, c.file); got != c.want {
			t.Errorf("layerOf(%s) = %q, want %q", c.fn, got, c.want)
		}
	}
}

func TestSuiteAccuracyParsesTables(t *testing.T) {
	text := `Table 2: trace characteristics
benchmark  proc  shMR%  shMR%paper
----------------------------------
MP3D       8     9.00   10.00
WATER      16    2.20   2.00

Model validation, MP3D/8 (calibrated at 50 MIPS)
proto       cycle(ns)  lat(model)  lat(sim)
-------------------------------------------
snoop-ring  5          90          100

Model validation, WATER/16 (calibrated at 50 MIPS)
proto       cycle(ns)  lat(model)  lat(sim)
-------------------------------------------
snoop-ring  5          130         100
`
	t2, model := suiteAccuracy(text)
	if t2 < 9.99 || t2 > 10.01 {
		t.Errorf("table2 error = %g %%, want 10", t2)
	}
	if model < 19.99 || model > 20.01 {
		t.Errorf("model error = %g %%, want 20", model)
	}
}
