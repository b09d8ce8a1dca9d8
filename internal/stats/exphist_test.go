package stats

import (
	"math"
	"testing"
)

func TestExpHistogramBuckets(t *testing.T) {
	h := NewExpHistogram(1, 2, 4) // bounds 1, 2, 4, 8 + overflow
	for _, v := range []float64{0.5, 1, 1.5, 3, 100} {
		h.Observe(v)
	}
	snap := h.Snapshot()
	bounds, counts := snap.Bounds, snap.Counts
	if len(bounds) != 4 || len(counts) != 5 {
		t.Fatalf("shape = %d bounds / %d counts, want 4/5", len(bounds), len(counts))
	}
	// le semantics: 0.5 and 1 land in the first bucket (<= 1).
	want := []uint64{2, 1, 1, 0, 1}
	for i, c := range counts {
		if c != want[i] {
			t.Errorf("bucket %d count = %d, want %d", i, c, want[i])
		}
	}
	if h.N() != 5 || h.Sum() != 106 {
		t.Errorf("n/sum = %d/%g, want 5/106", h.N(), h.Sum())
	}
	if got := h.Mean(); math.Abs(got-106.0/5) > 1e-12 {
		t.Errorf("mean = %g", got)
	}
}

func TestExpHistogramQuantile(t *testing.T) {
	h := NewExpHistogram(0.001, 2, 20)
	if h.Quantile(0.5) != 0 {
		t.Error("empty histogram quantile should be 0")
	}
	for i := 0; i < 1000; i++ {
		h.Observe(0.010) // all samples in one bucket
	}
	q := h.Quantile(0.5)
	// 0.010 lies in the (0.008, 0.016] bucket; the interpolated median
	// must land inside it.
	if q <= 0.008 || q > 0.016 {
		t.Errorf("median %g outside its bucket", q)
	}
	h.Observe(1e9) // overflow reports the largest finite bound
	if got := h.Quantile(1); got != 0.001*math.Pow(2, 19) {
		t.Errorf("overflow quantile = %g", got)
	}
}

func TestExpHistogramMerge(t *testing.T) {
	// Merging an empty (and a nil) histogram is a no-op.
	h := NewExpHistogram(1, 2, 4)
	h.Observe(3)
	if err := h.Merge(NewExpHistogram(1, 2, 4)); err != nil {
		t.Fatalf("merge of empty: %v", err)
	}
	if err := h.Merge(nil); err != nil {
		t.Fatalf("merge of nil: %v", err)
	}
	if h.N() != 1 || h.Sum() != 3 {
		t.Fatalf("no-op merges changed state: n=%d sum=%g", h.N(), h.Sum())
	}

	// Merging into an empty histogram reproduces the source, including
	// quantiles: all o samples share one bucket.
	o := NewExpHistogram(1, 2, 4)
	for i := 0; i < 10; i++ {
		o.Observe(3) // the (2, 4] bucket
	}
	empty := NewExpHistogram(1, 2, 4)
	if err := empty.Merge(o); err != nil {
		t.Fatal(err)
	}
	if empty.N() != 10 || empty.Sum() != 30 {
		t.Fatalf("merged n/sum = %d/%g, want 10/30", empty.N(), empty.Sum())
	}
	if q := empty.Quantile(0.5); q <= 2 || q > 4 {
		t.Fatalf("single-bucket merged median %g outside (2, 4]", q)
	}

	// Overflow-bucket samples merge into the overflow bucket and keep
	// reporting the largest finite bound.
	ov := NewExpHistogram(1, 2, 4)
	ov.Observe(1e6)
	if err := h.Merge(ov); err != nil {
		t.Fatal(err)
	}
	counts := h.Snapshot().Counts
	if counts[len(counts)-1] != 1 {
		t.Fatalf("overflow count = %d, want 1", counts[len(counts)-1])
	}
	if got := h.Quantile(1); got != 8 {
		t.Fatalf("overflow quantile after merge = %g, want 8 (largest finite bound)", got)
	}

	// Shape mismatches with samples are rejected and leave the
	// receiver unchanged (an empty mismatched source is a no-op).
	wider := NewExpHistogram(1, 2, 5)
	wider.Observe(2)
	if err := h.Merge(wider); err == nil {
		t.Fatal("merge of different bucket count succeeded")
	}
	shifted := NewExpHistogram(1.5, 2, 4)
	shifted.Observe(2)
	if err := h.Merge(shifted); err == nil {
		t.Fatal("merge of different bounds succeeded")
	}
	if h.N() != 2 {
		t.Fatalf("failed merges changed state: n=%d, want 2", h.N())
	}
}

func TestExpHistogramClone(t *testing.T) {
	h := NewExpHistogram(1, 2, 4)
	h.Observe(3)
	c := h.Clone()
	c.Observe(100)
	c.Observe(1e9)
	if h.N() != 1 || c.N() != 3 {
		t.Fatalf("clone aliases its source: n=%d/%d, want 1/3", h.N(), c.N())
	}
	if err := h.Merge(c); err != nil {
		t.Fatalf("merge of clone: %v", err)
	}
	if h.N() != 4 || h.Sum() != 3+3+100+1e9 {
		t.Fatalf("merged clone n/sum = %d/%g", h.N(), h.Sum())
	}
}

func TestPercentile(t *testing.T) {
	samples := []float64{5, 1, 4, 2, 3}
	cases := []struct{ q, want float64 }{
		{0, 1}, {0.25, 2}, {0.5, 3}, {0.75, 4}, {1, 5}, {0.9, 4.6},
	}
	for _, c := range cases {
		if got := Percentile(samples, c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("Percentile(%g) = %g, want %g", c.q, got, c.want)
		}
	}
	// Input must not be reordered.
	if samples[0] != 5 {
		t.Error("Percentile sorted its input")
	}
	if got := Percentile([]float64{7}, 0.99); got != 7 {
		t.Errorf("singleton percentile = %g", got)
	}
}
