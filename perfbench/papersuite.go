package main

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/sweep"
	"repro/internal/workload"
)

// The paper-suite workload: the paper's whole evaluation (Tables 1–4,
// Figures 3–6, validation, hierarchy, ablations) through a fresh
// experiments.Runner — the runner repro.NewSuite wraps — with one
// worker and no disk cache. The artifact is the suite's text output.

// suiteRun is one evaluation of the paper suite.
type suiteRun struct {
	r    *experiments.Runner
	text string
	// sections is each experiment's wall time in seconds, in order.
	sections []float64

	mu       sync.Mutex
	computed []sweep.Job
}

func newSuiteRun(o opts) *suiteRun {
	s := &suiteRun{}
	s.r = experiments.NewRunner(experiments.Options{
		DataRefsPerCPU: o.SuiteRefs,
		Seed:           o.Seed,
		Workers:        1,
		OnEvent: func(ev sweep.Event) {
			if ev.Type == sweep.EventDone {
				s.mu.Lock()
				s.computed = append(s.computed, ev.Job)
				s.mu.Unlock()
			}
		},
	})
	return s
}

// evaluate renders every experiment of the suite in ringbench's order
// and format (parallelscale and shardedscale excluded).
func (s *suiteRun) evaluate() {
	r := s.r
	panels := func(p *experiments.FigurePanels) string {
		return p.ProcUtil.String() + "\n" + p.NetUtil.String() + "\n" + p.MissLatency.String()
	}
	var b strings.Builder
	section := func(name string, render func() string) {
		t0 := time.Now()
		out := render()
		s.sections = append(s.sections, time.Since(t0).Seconds())
		fmt.Fprintf(&b, "==== %s ====\n%s\n", name, out)
	}
	section("table1", func() string { return r.Table1().String() })
	section("table2", func() string { return r.Table2().String() })
	section("table3", func() string { return r.Table3().String() })
	section("table4", func() string { return r.Table4().String() })
	section("figure3", func() string {
		var f3 strings.Builder
		for _, bench := range []string{"MP3D", "WATER", "CHOLESKY"} {
			f3.WriteString(panels(r.Figure3(bench)) + "\n")
		}
		return f3.String()
	})
	section("figure4", func() string { return panels(r.Figure4()) })
	section("figure5", func() string { return r.Figure5().String() })
	section("figure6", func() string {
		var f6 strings.Builder
		for _, bench := range []string{"MP3D", "WATER"} {
			for _, cpus := range []int{8, 16, 32} {
				f6.WriteString(panels(r.Figure6(bench, cpus)) + "\n")
			}
		}
		return f6.String()
	})
	section("validation", func() string {
		return r.Validation("MP3D", 8).String() + "\n" + r.Validation("WATER", 16).String()
	})
	section("hierarchy", func() string {
		return r.ExtensionHierarchyTable("FFT", 64, 8).String() + "\n" + r.ExtensionHierarchyTable("MP3D", 32, 4).String()
	})
	section("ablations", func() string {
		return strings.Join([]string{
			r.AblationSlotMix("MP3D", 16).String(),
			r.AblationStarvationRule("MP3D", 16).String(),
			r.AblationWideRing("MP3D", 16).String(),
			r.AblationMultitaskingTable("WATER", 16).String(),
			r.AblationBlockSizeTable("MP3D", 16).String(),
			r.AblationLatencyToleranceTable("MP3D", 16).String(),
			r.LatencyDecompositionTable("MP3D", 16, 2).String(),
			experiments.AblationAccessControlTable(8).String(),
		}, "\n")
	})
	s.text = b.String()
}

// measuredRefs sums the measured (post-warm-up) instruction and data
// references of every simulation job the run's sweep engine computed,
// read back from the runner's memo. The simulations the runner makes
// outside its engine (calibration fits, uncached SimulateAt runs, the
// access-control ablation) have no public seam and are not counted.
func (s *suiteRun) measuredRefs() (uint64, error) {
	var n uint64
	for _, j := range s.computed {
		cfg, err := j.SystemConfig()
		if err != nil {
			return 0, err
		}
		m := s.r.SimulateAt(cfg, j.Benchmark, j.CPUs)
		n += m.InstrRefs + m.DataRefs
	}
	return n, nil
}

// suiteSetup builds what the suite simulates first: a runner, and the
// generator and machine of every Table 2 profile.
func suiteSetup(o opts) error {
	_ = newSuiteRun(o)
	for _, p := range workload.Profiles() {
		gen := workload.NewGenerator(workload.Config{Profile: p, DataRefsPerCPU: o.SuiteRefs + 600, Seed: o.Seed})
		_ = core.NewSystem(core.Config{Protocol: core.DirectoryRing, Seed: o.Seed, WarmupDataRefs: 600}, gen)
	}
	return nil
}

func runPaperSuite(o opts) (*outcome, error) {
	oc := &outcome{Metrics: map[string]float64{}}
	setup, err := medianSetup(o, func() error { return suiteSetup(o) })
	if err != nil {
		return nil, err
	}
	chk := newArtifactChecker(o, wlSuite)
	// Only the last runner is kept: each holds every simulated machine
	// it computed.
	var last *suiteRun
	var sections [][]float64
	walls, err := timed(o, func(i int) error {
		last = newSuiteRun(o)
		last.evaluate()
		chk.check(oc, fmt.Sprintf("suite %d output", i), []byte(last.text))
		if i > 0 {
			sections = append(sections, last.sections)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	oc.Attempted = len(walls) + 1
	refs, err := last.measuredRefs()
	if err != nil {
		return nil, err
	}
	// The suite's wall is the sum over its experiments of each one's
	// median time across the timed runs: load from outside the benchmark
	// that slows one experiment in one run does not move it.
	var wall float64
	for i := range last.sections {
		var t []float64
		for _, s := range sections {
			t = append(t, s[i])
		}
		wall += median(t)
	}
	return simMetrics(o, oc, setup, wall, walls, refs), nil
}

// simMetrics fills a simulator workload's end-to-end metrics from its
// set-up time, its wall estimate, each timed operation's wall, and the
// references one operation simulates.
func simMetrics(o opts, oc *outcome, setup, wall float64, walls []float64, refs uint64) *outcome {
	m := oc.Metrics
	m["setup_s"] = setup
	m["wall_s"] = wall
	m["sim_refs_per_s"] = float64(refs) / wall
	var total float64
	for _, w := range walls {
		total += w
	}
	m["req_per_s"] = float64(len(walls)) / total
	latencyMetrics(o, m, walls)
	m["max_rss_mb"] = maxRSSMB()
	return oc
}

// tableColumns parses the first text table in s whose header holds
// every named column, returning those columns' values row by row.
func tableColumns(s string, cols ...string) [][]float64 {
	var out [][]float64
	lines := strings.Split(s, "\n")
	for i := 0; i < len(lines); i++ {
		head := strings.Fields(lines[i])
		idx := make([]int, len(cols))
		found := true
		for c, name := range cols {
			idx[c] = -1
			for k, h := range head {
				if h == name {
					idx[c] = k
				}
			}
			found = found && idx[c] >= 0
		}
		if !found {
			continue
		}
		for _, row := range lines[i+1:] {
			f := strings.Fields(row)
			if len(f) != len(head) {
				if len(out) > 0 || strings.TrimSpace(row) == "" {
					break
				}
				continue // a rule line under the header
			}
			vals := make([]float64, len(cols))
			ok := true
			for c, k := range idx {
				v, err := strconv.ParseFloat(f[k], 64)
				vals[c], ok = v, ok && err == nil
			}
			if ok {
				out = append(out, vals)
			}
		}
		if len(out) > 0 {
			return out
		}
	}
	return out
}

// meanRelErrPct is the mean of |a-b|/b over pairs, in percent.
func meanRelErrPct(pairs [][]float64) float64 {
	var sum float64
	var n int
	for _, p := range pairs {
		if p[1] != 0 {
			sum += math.Abs(p[0]-p[1]) / math.Abs(p[1])
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return 100 * sum / float64(n)
}

// suiteAccuracy returns the Table 2 shared-miss-rate error against the
// paper's targets and the analytic model's latency error against the
// simulation in the validation tables.
func suiteAccuracy(text string) (table2, model float64) {
	table2 = meanRelErrPct(tableColumns(text, "shMR%", "shMR%paper"))
	var val [][]float64
	rest := text
	for {
		i := strings.Index(rest, "Model validation")
		if i < 0 {
			break
		}
		rest = rest[i+1:]
		val = append(val, tableColumns(rest, "lat(model)", "lat(sim)")...)
	}
	return table2, meanRelErrPct(val)
}
