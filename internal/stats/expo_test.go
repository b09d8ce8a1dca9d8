package stats

import (
	"strings"
	"testing"
)

// TestWriteFamiliesRendering pins the three renderer contracts: integer
// series stay integers above 1e6, a histogram's +Inf bucket equals its
// _count, and label values are %q-quoted. A family whose When fails is
// absent; one without samples still prints its header.
func TestWriteFamiliesRendering(t *testing.T) {
	h := NewExpHistogram(1, 10, 3) // bounds 1, 10, 100
	for _, v := range []float64{0.5, 5, 50, 500, 5000} {
		h.Observe(v)
	}
	type view struct{ n int64 }
	table := []Family[view]{
		{Name: "ringsim_test_events_total", Type: TypeCounter, Help: "Events.",
			Write: func(e *Expo, v view) { e.Int(v.n, "path", `C:\a "b"`+"\n") }},
		{Name: "ringsim_test_latency_seconds", Type: TypeHistogram, Help: "Latency.",
			Write: func(e *Expo, _ view) { e.Hist(h, 1e3, "class", "x") }},
		{Name: "ringsim_test_ratio", Type: TypeGauge, Help: "Ratio.",
			Write: func(e *Expo, _ view) { e.Float(0.25) }},
		{Name: "ringsim_test_absent", Type: TypeGauge, Help: "Never shown.",
			When:  func(view) bool { return false },
			Write: func(e *Expo, _ view) { e.Int(1) }},
		{Name: "ringsim_test_empty", Type: TypeGauge, Help: "No samples.",
			Write: func(*Expo, view) {}},
	}
	var b strings.Builder
	WriteFamilies(&b, table, view{n: 12345678})
	want := `# HELP ringsim_test_events_total Events.
# TYPE ringsim_test_events_total counter
ringsim_test_events_total{path="C:\\a \"b\"\n"} 12345678
# HELP ringsim_test_latency_seconds Latency.
# TYPE ringsim_test_latency_seconds histogram
ringsim_test_latency_seconds_bucket{class="x",le="0.001"} 1
ringsim_test_latency_seconds_bucket{class="x",le="0.01"} 2
ringsim_test_latency_seconds_bucket{class="x",le="0.1"} 3
ringsim_test_latency_seconds_bucket{class="x",le="+Inf"} 5
ringsim_test_latency_seconds_sum{class="x"} 5.5555
ringsim_test_latency_seconds_count{class="x"} 5
# HELP ringsim_test_ratio Ratio.
# TYPE ringsim_test_ratio gauge
ringsim_test_ratio 0.25
# HELP ringsim_test_empty No samples.
# TYPE ringsim_test_empty gauge
`
	if got := b.String(); got != want {
		t.Errorf("rendered page:\n%s\nwant:\n%s", got, want)
	}
}

// TestFederateKeepsWorkerOnlyHeaders federates two worker pages onto a
// coordinator page: a family the coordinator declares is not declared
// again, a family only the workers carry keeps exactly one HELP and
// one TYPE, and every sample gets the worker label first.
func TestFederateKeepsWorkerOnlyHeaders(t *testing.T) {
	coord := []byte("# HELP ringsim_a_total A.\n# TYPE ringsim_a_total counter\nringsim_a_total 1\n")
	worker := func(n string) []byte {
		return []byte("# HELP ringsim_a_total A.\n# TYPE ringsim_a_total counter\nringsim_a_total " + n + "\n" +
			"# HELP ringsim_b_seconds B.\n# TYPE ringsim_b_seconds histogram\n" +
			"ringsim_b_seconds_bucket{le=\"+Inf\"} " + n + "\nringsim_b_seconds_count{} " + n + "\n\n# comment\n")
	}
	var b strings.Builder
	seen := map[string]bool{}
	Federate(&b, coord, "", "", seen)
	Federate(&b, worker("2"), "worker", "w1", seen)
	Federate(&b, worker("3"), "worker", "w2", seen)
	want := `# HELP ringsim_a_total A.
# TYPE ringsim_a_total counter
ringsim_a_total 1
ringsim_a_total{worker="w1"} 2
# HELP ringsim_b_seconds B.
# TYPE ringsim_b_seconds histogram
ringsim_b_seconds_bucket{worker="w1",le="+Inf"} 2
ringsim_b_seconds_count{worker="w1"} 2
ringsim_a_total{worker="w2"} 3
ringsim_b_seconds_bucket{worker="w2",le="+Inf"} 3
ringsim_b_seconds_count{worker="w2"} 3
`
	if got := b.String(); got != want {
		t.Errorf("federated page:\n%s\nwant:\n%s", got, want)
	}
}
