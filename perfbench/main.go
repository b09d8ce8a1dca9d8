// Command perfbench is the repository's benchmark: it runs one workload
// for a fixed time, checks every output it produces, and prints the
// end-to-end metrics (untraced run) or the per-layer metrics (traced
// run) as one JSON object on the last line of standard output.
//
//	perfbench --workload paper-suite --seed 1 --seconds 30 --trace 0
//
// README.md says why each workload was chosen, how each metric is
// defined, and which end-to-end metric each layer metric should move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"time"
)

// opts is one run's configuration. The size fields default to the
// benchmark's sizes; the harness tests shrink them.
type opts struct {
	Seed    uint64
	Seconds float64
	Trace   bool
	// SuiteRefs is the paper suite's calibration length per CPU.
	SuiteRefs int
	// ShardRefs is the sharded workload's data references per CPU.
	ShardRefs int
	// ServeRefs is the length of the serve mix's pool jobs, ServeJobs
	// their number, and ServeRequests the submissions of one ringload
	// run over them.
	ServeRefs, ServeJobs, ServeRequests int
	// SetupReps and SetupSeconds are the fewest times a run repeats its
	// set-up and the least time it spends on them.
	SetupReps    int
	SetupSeconds float64
	// MinOps is the fewest timed operations a run makes, however long
	// they take.
	MinOps int
	// Log receives the human-readable report lines.
	Log io.Writer
}

func defaultOpts() opts {
	return opts{
		SuiteRefs: 2000,
		ShardRefs: 20000,
		// ringload's defaults.
		ServeRefs:     500,
		ServeJobs:     8,
		ServeRequests: 200,
		SetupReps:     25,
		SetupSeconds:  1,
		MinOps:        3,
		Log:           os.Stdout,
	}
}

// defaultSizes reports whether o runs the sizes the goldens were taken
// at.
func (o opts) defaultSizes() bool {
	d := defaultOpts()
	return o.SuiteRefs == d.SuiteRefs && o.ShardRefs == d.ShardRefs &&
		o.ServeRefs == d.ServeRefs && o.ServeJobs == d.ServeJobs
}

// outcome is what a workload run produces.
type outcome struct {
	Attempted int
	Failed    int
	// Problems lists the failed checks, one line each.
	Problems []string
	Metrics  map[string]float64
}

func (oc *outcome) fail(format string, args ...any) {
	oc.Failed++
	oc.Problems = append(oc.Problems, fmt.Sprintf(format, args...))
}

type workloadFunc func(o opts) (*outcome, error)

var workloads = map[string]struct{ run, traced workloadFunc }{
	wlSuite:   {runPaperSuite, tracePaperSuite},
	wlSharded: {runSharded, traceSharded},
	wlServe:   {runServeMix, traceServeMix},
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type report struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name    = fs.String("workload", "", "workload: paper-suite, sharded-mp3d32 or serve-mix")
		seed    = fs.Uint64("seed", 1, "seed the workload's inputs are generated from")
		seconds = fs.Float64("seconds", 30, "how long the run measures")
		trace   = fs.Int("trace", 0, "1 for the traced run that reports per-layer metrics")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload (paper-suite|sharded-mp3d32|serve-mix), --seconds > 0 and --trace 0|1\n")
		return 2
	}
	o := defaultOpts()
	o.Seed, o.Seconds, o.Trace, o.Log = *seed, *seconds, *trace == 1, stdout
	fn := w.run
	if o.Trace {
		// Sample about one allocation per 4 KiB, so the per-layer
		// allocation counts rest on thousands of samples.
		runtime.MemProfileRate = 4096
		fn = w.traced
	}
	oc, err := fn(o)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	rep, err := buildReport(oc, metricsFor(o.Trace))
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	for _, p := range oc.Problems {
		fmt.Fprintln(stderr, "perfbench: check failed:", p)
	}
	fmt.Fprintf(stdout, "fail_frac %.4g (%d of %d operations failed)\n",
		float64(rep.Failed)/float64(rep.Attempted), rep.Failed, rep.Attempted)
	names := make([]string, 0, len(rep.Metrics))
	for n := range rep.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(stdout, "%-32s %14.6g %s\n", n, rep.Metrics[n].Value, rep.Metrics[n].Unit)
	}
	raw, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench: encoding report:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(raw))
	return 0
}

// buildReport checks that the run produced exactly the metric set
// defs names and attaches units.
func buildReport(oc *outcome, defs []metricDef) (report, error) {
	if oc.Attempted < 1 {
		return report{}, fmt.Errorf("no operation attempted")
	}
	rep := report{
		Correct:   oc.Failed == 0,
		Attempted: oc.Attempted,
		Failed:    oc.Failed,
		Metrics:   make(map[string]metricValue, len(defs)),
	}
	for _, d := range defs {
		v, ok := oc.Metrics[d.Name]
		if !ok {
			return report{}, fmt.Errorf("metric %s was not measured", d.Name)
		}
		rep.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	if len(oc.Metrics) != len(defs) {
		for n := range oc.Metrics {
			if _, ok := rep.Metrics[n]; !ok {
				return report{}, fmt.Errorf("metric %s is not declared", n)
			}
		}
	}
	return rep, nil
}

// timed runs one untimed warm-up operation, so the heap and the host's
// caches reach their working size, then runs ops until the run's time
// is spent and at least o.MinOps have run. It returns each timed
// operation's wall time in seconds; op(0) is the warm-up.
func timed(o opts, op func(i int) error) (walls []float64, err error) {
	if err := op(0); err != nil {
		return nil, err
	}
	start := time.Now()
	for i := 1; i <= o.MinOps || time.Since(start).Seconds() < o.Seconds; i++ {
		t0 := time.Now()
		if err := op(i); err != nil {
			return walls, err
		}
		walls = append(walls, time.Since(t0).Seconds())
	}
	return walls, nil
}

// medianSetup runs set-up once untimed, so the heap has grown to hold
// it, then at least o.SetupReps times and for at least o.SetupSeconds,
// and returns the median wall in seconds. Each set-up starts after a
// collection, so it allocates from freed memory rather than faulting
// in new pages whenever the collector happened not to run between two
// set-ups.
func medianSetup(o opts, setup func() error) (float64, error) {
	var ws []float64
	var total float64
	for i := 0; i <= o.SetupReps || total < o.SetupSeconds; i++ {
		runtime.GC()
		t0 := time.Now()
		if err := setup(); err != nil {
			return 0, err
		}
		if i > 0 {
			w := time.Since(t0).Seconds()
			ws, total = append(ws, w), total+w
		}
	}
	return median(ws), nil
}
