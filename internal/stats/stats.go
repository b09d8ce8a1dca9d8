// Package stats provides the measurement primitives shared by the
// simulators and experiment drivers: counters, running means,
// histograms, time-weighted utilization trackers, and the ASCII table
// and series renderers the benches use to print paper-style output.
package stats

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Counter is a simple named event counter.
type Counter struct {
	n uint64
}

// Add increments the counter by d.
func (c *Counter) Add(d uint64) { c.n += d }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.n++ }

// Count returns the current value.
func (c *Counter) Count() uint64 { return c.n }

// Mean accumulates a running arithmetic mean with min/max.
type Mean struct {
	n        uint64
	sum      float64
	min, max float64
}

// Observe adds one sample.
func (m *Mean) Observe(v float64) {
	if m.n == 0 || v < m.min {
		m.min = v
	}
	if m.n == 0 || v > m.max {
		m.max = v
	}
	m.n++
	m.sum += v
}

// N returns the number of samples.
func (m *Mean) N() uint64 { return m.n }

// Moments returns the raw accumulator state — sample count, sum, min
// and max — so a Mean can be serialized and reconstructed losslessly.
func (m *Mean) Moments() (n uint64, sum, min, max float64) {
	return m.n, m.sum, m.min, m.max
}

// MeanFromMoments rebuilds a Mean from the state Moments reported.
func MeanFromMoments(n uint64, sum, min, max float64) Mean {
	return Mean{n: n, sum: sum, min: min, max: max}
}

// Sum returns the sum of all samples.
func (m *Mean) Sum() float64 { return m.sum }

// Value returns the mean, or zero with no samples.
func (m *Mean) Value() float64 {
	if m.n == 0 {
		return 0
	}
	return m.sum / float64(m.n)
}

// Min returns the smallest sample, or zero with no samples.
func (m *Mean) Min() float64 { return m.min }

// Max returns the largest sample, or zero with no samples.
func (m *Mean) Max() float64 { return m.max }

// Histogram counts samples in fixed-width bins over [lo, hi); samples
// outside the range land in saturating end bins.
type Histogram struct {
	lo, hi float64
	bins   []uint64
	n      uint64
	sum    float64
}

// NewHistogram returns a histogram with the given range and bin count.
func NewHistogram(lo, hi float64, bins int) *Histogram {
	if bins <= 0 || hi <= lo {
		panic("stats: invalid histogram shape")
	}
	return &Histogram{lo: lo, hi: hi, bins: make([]uint64, bins)}
}

// Observe adds one sample.
func (h *Histogram) Observe(v float64) {
	h.n++
	h.sum += v
	i := int(float64(len(h.bins)) * (v - h.lo) / (h.hi - h.lo))
	if i < 0 {
		i = 0
	}
	if i >= len(h.bins) {
		i = len(h.bins) - 1
	}
	h.bins[i]++
}

// N returns the number of samples.
func (h *Histogram) N() uint64 { return h.n }

// Mean returns the mean of all samples.
func (h *Histogram) Mean() float64 {
	if h.n == 0 {
		return 0
	}
	return h.sum / float64(h.n)
}

// Quantile returns an approximate q-quantile (0 <= q <= 1) assuming
// samples are uniform within a bin.
func (h *Histogram) Quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	target := q * float64(h.n)
	var cum float64
	width := (h.hi - h.lo) / float64(len(h.bins))
	for i, c := range h.bins {
		next := cum + float64(c)
		if next >= target && c > 0 {
			frac := (target - cum) / float64(c)
			return h.lo + (float64(i)+frac)*width
		}
		cum = next
	}
	return h.hi
}

// ExpHistogram counts samples in exponentially growing buckets — the
// shape latency distributions want, and the shape Prometheus histogram
// export expects: bucket i covers (bounds[i-1], bounds[i]], the last
// implicit bucket is unbounded. The zero value is not usable;
// construct with NewExpHistogram.
type ExpHistogram struct {
	bounds []float64
	counts []uint64
	n      uint64
	sum    float64
}

// NewExpHistogram returns a histogram whose finite bucket upper bounds
// are start, start*factor, ..., for n buckets (plus the implicit
// overflow bucket). start must be positive and factor > 1.
func NewExpHistogram(start, factor float64, n int) *ExpHistogram {
	if start <= 0 || factor <= 1 || n <= 0 {
		panic("stats: invalid exponential histogram shape")
	}
	bounds := make([]float64, n)
	b := start
	for i := range bounds {
		bounds[i] = b
		b *= factor
	}
	return &ExpHistogram{bounds: bounds, counts: make([]uint64, n+1)}
}

// Observe adds one sample.
func (h *ExpHistogram) Observe(v float64) {
	h.n++
	h.sum += v
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i]++
}

// N returns the number of samples.
func (h *ExpHistogram) N() uint64 { return h.n }

// Sum returns the sum of all samples.
func (h *ExpHistogram) Sum() float64 { return h.sum }

// Mean returns the mean of all samples, or zero with none.
func (h *ExpHistogram) Mean() float64 {
	if h.n == 0 {
		return 0
	}
	return h.sum / float64(h.n)
}

// Clone returns an independent copy of the histogram.
func (h *ExpHistogram) Clone() *ExpHistogram {
	return &ExpHistogram{
		bounds: append([]float64(nil), h.bounds...),
		counts: append([]uint64(nil), h.counts...),
		n:      h.n,
		sum:    h.sum,
	}
}

// Merge folds o's samples into h. The two histograms must share the
// same bucket bounds (the same NewExpHistogram shape); merging
// mismatched shapes returns an error and leaves h unchanged. A nil or
// empty o merges as a no-op.
func (h *ExpHistogram) Merge(o *ExpHistogram) error {
	if o == nil || o.n == 0 {
		return nil
	}
	if len(o.bounds) != len(h.bounds) {
		return fmt.Errorf("stats: merging histograms with %d and %d buckets", len(h.bounds), len(o.bounds))
	}
	for i, b := range h.bounds {
		if o.bounds[i] != b {
			return fmt.Errorf("stats: merging histograms with different bounds at bucket %d (%g vs %g)", i, b, o.bounds[i])
		}
	}
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
	h.sum += o.sum
	return nil
}

// HistSnapshot is the lossless serialized form of an ExpHistogram —
// what the cluster's metrics federation ships over the wire so the
// coordinator can Merge worker histograms into fleet aggregates.
type HistSnapshot struct {
	Bounds []float64 `json:"bounds"`
	Counts []uint64  `json:"counts"` // len(Bounds)+1; trailing overflow bucket
	N      uint64    `json:"n"`
	Sum    float64   `json:"sum"`
}

// Snapshot returns the histogram's serializable state (copies).
func (h *ExpHistogram) Snapshot() HistSnapshot {
	return HistSnapshot{
		Bounds: append([]float64(nil), h.bounds...),
		Counts: append([]uint64(nil), h.counts...),
		N:      h.n,
		Sum:    h.sum,
	}
}

// FromSnapshot rebuilds an ExpHistogram from a snapshot, validating
// the invariants NewExpHistogram+Observe would have maintained —
// shape, strictly increasing positive bounds, and count consistency —
// so a malformed or hostile peer payload cannot poison a fleet merge.
func FromSnapshot(s HistSnapshot) (*ExpHistogram, error) {
	if len(s.Bounds) == 0 || len(s.Counts) != len(s.Bounds)+1 {
		return nil, fmt.Errorf("stats: snapshot shape %d bounds / %d counts", len(s.Bounds), len(s.Counts))
	}
	var total uint64
	for _, c := range s.Counts {
		total += c
	}
	if total != s.N {
		return nil, fmt.Errorf("stats: snapshot count mismatch: buckets sum %d, n %d", total, s.N)
	}
	prev := 0.0
	for i, b := range s.Bounds {
		if b <= prev || math.IsNaN(b) || math.IsInf(b, 0) {
			return nil, fmt.Errorf("stats: snapshot bounds not increasing/finite at bucket %d", i)
		}
		prev = b
	}
	return &ExpHistogram{
		bounds: append([]float64(nil), s.Bounds...),
		counts: append([]uint64(nil), s.Counts...),
		n:      s.N,
		sum:    s.Sum,
	}, nil
}

// Quantile returns an approximate q-quantile (0 <= q <= 1), assuming
// samples are uniform within a bucket; overflow samples report the
// largest finite bound.
func (h *ExpHistogram) Quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	target := q * float64(h.n)
	var cum float64
	for i, c := range h.counts {
		next := cum + float64(c)
		if next >= target && c > 0 {
			if i >= len(h.bounds) {
				return h.bounds[len(h.bounds)-1]
			}
			lo := 0.0
			if i > 0 {
				lo = h.bounds[i-1]
			}
			frac := (target - cum) / float64(c)
			return lo + frac*(h.bounds[i]-lo)
		}
		cum = next
	}
	return h.bounds[len(h.bounds)-1]
}

// Percentile returns the exact q-quantile (0 <= q <= 1) of the samples
// by linear interpolation between adjacent order statistics. The input
// is not modified; it panics on an empty slice.
func Percentile(samples []float64, q float64) float64 {
	if len(samples) == 0 {
		panic("stats: Percentile of no samples")
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	if q <= 0 {
		return s[0]
	}
	if q >= 1 {
		return s[len(s)-1]
	}
	pos := q * float64(len(s)-1)
	i := int(pos)
	frac := pos - float64(i)
	if i+1 >= len(s) {
		return s[i]
	}
	return s[i] + frac*(s[i+1]-s[i])
}

// Distribution tallies discrete outcomes (e.g. "misses needing k ring
// traversals") and reports percentage shares.
type Distribution struct {
	counts map[int]uint64
	total  uint64
}

// NewDistribution returns an empty discrete distribution.
func NewDistribution() *Distribution {
	return &Distribution{counts: make(map[int]uint64)}
}

// Observe tallies one outcome.
func (d *Distribution) Observe(outcome int) {
	d.counts[outcome]++
	d.total++
}

// AddCount tallies n occurrences of one outcome at once, the bulk
// form of Observe used when rebuilding a serialized distribution.
func (d *Distribution) AddCount(outcome int, n uint64) {
	if n == 0 {
		return
	}
	d.counts[outcome] += n
	d.total += n
}

// Counts returns a copy of the per-outcome tallies.
func (d *Distribution) Counts() map[int]uint64 {
	out := make(map[int]uint64, len(d.counts))
	for o, c := range d.counts {
		out[o] = c
	}
	return out
}

// N returns the number of observations.
func (d *Distribution) N() uint64 { return d.total }

// Count returns the tally for one outcome.
func (d *Distribution) Count(outcome int) uint64 { return d.counts[outcome] }

// Percent returns the share of observations with the given outcome, in
// percent.
func (d *Distribution) Percent(outcome int) float64 {
	if d.total == 0 {
		return 0
	}
	return 100 * float64(d.counts[outcome]) / float64(d.total)
}

// PercentAtLeast returns the share of observations with outcome >= k.
func (d *Distribution) PercentAtLeast(k int) float64 {
	if d.total == 0 {
		return 0
	}
	var n uint64
	for o, c := range d.counts {
		if o >= k {
			n += c
		}
	}
	return 100 * float64(n) / float64(d.total)
}

// Outcomes returns the observed outcomes in ascending order.
func (d *Distribution) Outcomes() []int {
	out := make([]int, 0, len(d.counts))
	for o := range d.counts {
		out = append(out, o)
	}
	sort.Ints(out)
	return out
}

// RelErr returns |a-b| / max(|b|, eps), the relative error of a against
// reference b, used for model-vs-simulation validation.
func RelErr(a, b float64) float64 {
	den := math.Abs(b)
	if den < 1e-12 {
		den = 1e-12
	}
	return math.Abs(a-b) / den
}

// Table renders aligned ASCII tables in the style of the paper's tables.
type Table struct {
	Title   string
	Headers []string
	rows    [][]string
}

// NewTable returns a table with the given title and column headers.
func NewTable(title string, headers ...string) *Table {
	return &Table{Title: title, Headers: headers}
}

// AddRow appends a row; cells beyond the header count are dropped.
func (t *Table) AddRow(cells ...string) {
	row := make([]string, len(t.Headers))
	for i := range row {
		if i < len(cells) {
			row[i] = cells[i]
		}
	}
	t.rows = append(t.rows, row)
}

// AddRowf appends a row of formatted cells, one format per cell,
// applied to the matching value.
func (t *Table) AddRowf(format string, values ...any) {
	t.AddRow(strings.Fields(fmt.Sprintf(format, values...))...)
}

// NumRows reports the number of data rows.
func (t *Table) NumRows() int { return len(t.rows) }

// String renders the table with aligned columns.
func (t *Table) String() string {
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, r := range t.rows {
		for i, c := range r {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		b.WriteString(t.Title)
		b.WriteByte('\n')
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	line(t.Headers)
	total := 0
	for _, w := range widths {
		total += w + 2
	}
	b.WriteString(strings.Repeat("-", total-2))
	b.WriteByte('\n')
	for _, r := range t.rows {
		line(r)
	}
	return b.String()
}

// Series is a named (x, y) data series, the unit of figure reproduction:
// each curve in a paper figure becomes one Series.
type Series struct {
	Name string
	X    []float64
	Y    []float64
}

// Add appends one point.
func (s *Series) Add(x, y float64) {
	s.X = append(s.X, x)
	s.Y = append(s.Y, y)
}

// At returns the y value for the given x, interpolating linearly and
// clamping outside the domain. It panics on an empty series.
func (s *Series) At(x float64) float64 {
	if len(s.X) == 0 {
		panic("stats: At on empty series")
	}
	if x <= s.X[0] {
		return s.Y[0]
	}
	for i := 1; i < len(s.X); i++ {
		if x <= s.X[i] {
			f := (x - s.X[i-1]) / (s.X[i] - s.X[i-1])
			return s.Y[i-1] + f*(s.Y[i]-s.Y[i-1])
		}
	}
	return s.Y[len(s.Y)-1]
}

// Figure is a collection of series sharing axes, mirroring one panel of
// a paper figure.
type Figure struct {
	Title  string
	XLabel string
	YLabel string
	Series []*Series
}

// NewFigure returns an empty figure panel.
func NewFigure(title, xlabel, ylabel string) *Figure {
	return &Figure{Title: title, XLabel: xlabel, YLabel: ylabel}
}

// AddSeries appends a new named series and returns it.
func (f *Figure) AddSeries(name string) *Series {
	s := &Series{Name: name}
	f.Series = append(f.Series, s)
	return s
}

// Get returns the series with the given name, or nil.
func (f *Figure) Get(name string) *Series {
	for _, s := range f.Series {
		if s.Name == name {
			return s
		}
	}
	return nil
}

// String renders the figure as a column-per-series table: the exact
// numbers behind each curve, which is what "regenerating a figure"
// means in a text harness.
func (f *Figure) String() string {
	t := NewTable(fmt.Sprintf("%s  [x=%s, y=%s]", f.Title, f.XLabel, f.YLabel))
	t.Headers = append(t.Headers, f.XLabel)
	for _, s := range f.Series {
		t.Headers = append(t.Headers, s.Name)
	}
	// Collect the union of x values (series usually share the sweep).
	xs := map[float64]bool{}
	for _, s := range f.Series {
		for _, x := range s.X {
			xs[x] = true
		}
	}
	sorted := make([]float64, 0, len(xs))
	for x := range xs {
		sorted = append(sorted, x)
	}
	sort.Float64s(sorted)
	for _, x := range sorted {
		row := []string{fmt.Sprintf("%.4g", x)}
		for _, s := range f.Series {
			row = append(row, fmt.Sprintf("%.4g", s.At(x)))
		}
		t.AddRow(row...)
	}
	return t.String()
}
