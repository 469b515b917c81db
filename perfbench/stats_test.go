package main

import (
	"math"
	"testing"
	"time"
)

func TestPercentileInterpolates(t *testing.T) {
	xs := []float64{40, 10, 30, 20} // unsorted on purpose
	cases := []struct{ q, want float64 }{
		{0, 10}, {1, 40}, {0.5, 25}, {0.9, 37}, {1.0 / 3, 20},
	}
	for _, c := range cases {
		if got := percentile(xs, c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("percentile(%v, %v) = %v, want %v", xs, c.q, got, c.want)
		}
	}
	if xs[0] != 40 || xs[1] != 10 {
		t.Errorf("percentile reordered its input: %v", xs)
	}
	if got := median([]float64{3}); got != 3 {
		t.Errorf("median of one sample = %v", got)
	}
	if got := percentile(nil, 0.5); !math.IsNaN(got) {
		t.Errorf("percentile of no samples = %v, want NaN", got)
	}
}

func TestPercentileCountsFailuresAsInfinite(t *testing.T) {
	// Nine answered requests and one failure: p50 is finite, the
	// quantile that reaches the failure is not.
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, math.Inf(1)}
	if got := percentile(xs, 0.5); got != 5.5 {
		t.Errorf("p50 = %v, want 5.5", got)
	}
	if got := percentile(xs, 0.95); !math.IsInf(got, 1) {
		t.Errorf("p95 = %v, want +Inf", got)
	}
	same := []float64{math.Inf(1), math.Inf(1)}
	if got := percentile(same, 0.5); !math.IsInf(got, 1) {
		t.Errorf("p50 of failures = %v, want +Inf", got)
	}
}

func TestTailSamples(t *testing.T) {
	cases := []struct {
		n    int
		q    float64
		want int
	}{
		{100, 0.9, 10}, {110, 0.9, 11}, {101, 0.9, 10}, {10, 0.5, 5}, {1, 0.9, 0},
	}
	for _, c := range cases {
		if got := tailSamples(c.n, c.q); got != c.want {
			t.Errorf("tailSamples(%d, %v) = %d, want %d", c.n, c.q, got, c.want)
		}
	}
}

func TestRatio(t *testing.T) {
	if got := ratio(3, 4); got != 0.75 {
		t.Errorf("ratio(3, 4) = %v", got)
	}
	if got := ratio(5, 0); got != 0 {
		t.Errorf("ratio(5, 0) = %v, want 0", got)
	}
	if got := ms(1500 * time.Microsecond); got != 1.5 {
		t.Errorf("ms(1.5ms) = %v", got)
	}
}

func TestHistPercentile(t *testing.T) {
	buckets := []float64{math.Inf(-1), 0, 1, 2, 4, math.Inf(1)}
	counts := []uint64{0, 10, 10, 0, 0}
	cases := []struct{ q, want float64 }{
		{0.25, 0.5}, // 5 of 20 samples: halfway through [0,1)
		{0.5, 1},    // 10 of 20: the top of [0,1)
		{0.9, 1.8},  // 18 of 20: 8/10 through [1,2)
	}
	for _, c := range cases {
		if got := histPercentile(buckets, counts, c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("histPercentile q=%v = %v, want %v", c.q, got, c.want)
		}
	}
	// Unbounded edge buckets report their finite edge.
	if got := histPercentile(buckets, []uint64{0, 0, 0, 0, 3}, 0.9); got != 4 {
		t.Errorf("overflow bucket = %v, want 4", got)
	}
	if got := histPercentile(buckets, []uint64{3, 0, 0, 0, 0}, 0.9); got != 0 {
		t.Errorf("underflow bucket = %v, want 0", got)
	}
	if got := histPercentile(buckets, make([]uint64, 5), 0.9); got != 0 {
		t.Errorf("empty histogram = %v, want 0", got)
	}
}

func TestRuntimeTotalsAccumulate(t *testing.T) {
	var total rtTotals
	before := readRuntime()
	// Large objects, which the runtime counts as they are allocated
	// (small ones are counted when a per-P cache is flushed).
	sink := make([][]byte, 0, 64)
	for i := 0; i < 64; i++ {
		sink = append(sink, make([]byte, 1<<18))
	}
	total.add(before, readRuntime())
	if total.allocBytes < 64<<18 || total.allocs < 64 {
		t.Errorf("allocated 16 MiB in 64 objects, totals read %v bytes in %v", total.allocBytes, total.allocs)
	}
	var merged rtTotals
	merged.merge(total)
	merged.merge(total)
	if merged.allocBytes != 2*total.allocBytes || len(merged.schedCount) != len(total.schedCount) {
		t.Errorf("merge of two equal totals: %v bytes, want %v", merged.allocBytes, 2*total.allocBytes)
	}
	_ = sink
}

func TestWindows(t *testing.T) {
	cases := []struct {
		span  time.Duration
		n     int
		width time.Duration
	}{
		{12500 * time.Millisecond, 12, 12500 * time.Millisecond / 12},
		{time.Second, 1, time.Second},
		{100 * time.Millisecond, 1, 100 * time.Millisecond},
	}
	for _, c := range cases {
		if n, w := windows(c.span); n != c.n || w != c.width {
			t.Errorf("windows(%v) = %d × %v, want %d × %v", c.span, n, w, c.n, c.width)
		}
	}
}

// A burst confined to one window moves the pooled p90 but not the
// median of the windows' p90s.
func TestWindowedFigures(t *testing.T) {
	ph := &phaseState{width: time.Second}
	for w := 0; w < 5; w++ {
		for i := 0; i < 100; i++ {
			ph.offsets = append(ph.offsets, time.Duration(w)*time.Second+time.Duration(i)*time.Millisecond)
			lat := 1.0 + float64(i)/100 // 1.00 … 1.99 ms
			if w == 2 {
				lat += 50 // the burst
			}
			ph.lat = append(ph.lat, lat)
		}
	}
	run := &inferRun{open: []*phaseState{ph}}
	if got := run.openPercentile(0.9); math.Abs(got-1.891) > 1e-9 {
		t.Errorf("windowed p90 = %v, want 1.891", got)
	}
	if pooled := percentile(run.latencies(), 0.9); pooled < 50 {
		t.Errorf("pooled p90 = %v; the burst should dominate it", pooled)
	}
	a := &phaseState{width: 500 * time.Millisecond, done: []int{100, 10, 120},
		sample: [][]float64{{1, 2}, {9, math.Inf(1)}, {3}}}
	b := &phaseState{width: 500 * time.Millisecond, done: []int{100, 10, 100},
		sample: [][]float64{{3}, {9}, {1, 2}}}
	run = &inferRun{closed: []*phaseState{a, b}}
	if got := run.reqPerSecond(); got != 400 {
		t.Errorf("reqPerSecond = %v, want the median window, 400", got)
	}
	// Window medians 2, 9, 2: a window with a failure moves only itself.
	if got := run.closedPercentile(0.5); got != 2 {
		t.Errorf("closedPercentile(0.5) = %v, want 2", got)
	}
}
