package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"syscall"
)

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func mean(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return ratio(s, float64(len(xs)))
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// tail returns the highest percentile, at most the 99th, that leaves at
// least ten samples beyond it (nearest rank), and that percentile. With
// ten samples or fewer no percentile qualifies and tail returns the
// maximum as the 100th.
func tail(xs []float64) (value float64, pct int) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0, 0
	}
	for pct = 99; pct >= 50; pct-- {
		rank := int(math.Ceil(float64(pct) / 100 * float64(n)))
		if n-rank >= 10 {
			return s[rank-1], pct
		}
	}
	return s[n-1], 100
}

// latencyMetrics fills p50_ms and p99_ms from per-operation seconds
// and states the percentile and sample count behind the tail.
func latencyMetrics(o opts, m map[string]float64, secs []float64) {
	m["p50_ms"] = 1e3 * median(secs)
	v, pct := tail(secs)
	m["p99_ms"] = 1e3 * v
	fmt.Fprintf(o.Log, "p99_ms is p%d of %d samples\n", pct, len(secs))
}

// maxRSSMB is the process's peak resident set in MiB.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

func sha(b []byte) string {
	s := sha256.Sum256(b)
	return hex.EncodeToString(s[:])
}

//go:embed goldens.json
var goldensJSON []byte

// goldens maps workload → seed → sha256 of the workload's artifact at
// the default sizes.
var goldens = func() map[string]map[string]string {
	var g map[string]map[string]string
	if err := json.Unmarshal(goldensJSON, &g); err != nil {
		panic(fmt.Sprintf("perfbench: goldens.json: %v", err))
	}
	return g
}()

// golden returns the artifact digest shipped for the run's workload
// and seed, if the run uses the default sizes and one was shipped.
func golden(o opts, workload string) (string, bool) {
	if !o.defaultSizes() {
		return "", false
	}
	want, ok := goldens[workload][fmt.Sprint(o.Seed)]
	return want, ok
}

// artifactChecker counts every operation whose artifact differs from
// the reference: the shipped golden when there is one, else the first
// operation's artifact, so a run is at least deterministic.
type artifactChecker struct {
	o        opts
	workload string
	ref      string
	golden   bool
	reported bool
}

func newArtifactChecker(o opts, workload string) *artifactChecker {
	ref, ok := golden(o, workload)
	return &artifactChecker{o: o, workload: workload, ref: ref, golden: ok}
}

func (c *artifactChecker) check(oc *outcome, what string, artifact []byte) {
	d := sha(artifact)
	kind := "first run's"
	if c.golden {
		kind = "golden"
	}
	if c.ref == "" {
		c.ref = d
	}
	if !c.reported {
		c.reported = true
		fmt.Fprintf(c.o.Log, "artifact sha256 %s (seed %d), checked against the %s %s\n", d, c.o.Seed, kind, c.ref)
	}
	if d != c.ref {
		oc.fail("%s seed %d %s: artifact sha256 %s, %s %s", c.workload, c.o.Seed, what, d, kind, c.ref)
	}
}
