package main

import (
	"math"
	"runtime/metrics"
	"syscall"
)

// Runtime counters read through runtime/metrics, which costs nothing
// while the program runs.
var rtNames = []string{
	"/cpu/classes/gc/total:cpu-seconds",
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
	"/sched/latencies:seconds",
}

// rtSnapshot is one reading of rtNames.
type rtSnapshot struct {
	gcCPU             float64 // seconds
	allocBytes, alloc uint64
	sched             *metrics.Float64Histogram
}

func readRuntime() rtSnapshot {
	s := make([]metrics.Sample, len(rtNames))
	for i, n := range rtNames {
		s[i].Name = n
	}
	metrics.Read(s)
	return rtSnapshot{
		gcCPU:      s[0].Value.Float64(),
		allocBytes: s[1].Value.Uint64(),
		alloc:      s[2].Value.Uint64(),
		sched:      s[3].Value.Float64Histogram(),
	}
}

// rtTotals accumulates runtime counters over the measured intervals
// of a run (set-up excluded).
type rtTotals struct {
	gcCPU      float64 // seconds
	allocBytes float64
	allocs     float64
	buckets    []float64
	schedCount []uint64
}

// add folds the interval from before to after into the totals.
func (t *rtTotals) add(before, after rtSnapshot) {
	t.gcCPU += after.gcCPU - before.gcCPU
	t.allocBytes += float64(after.allocBytes - before.allocBytes)
	t.allocs += float64(after.alloc - before.alloc)
	if t.buckets == nil {
		t.buckets = after.sched.Buckets
		t.schedCount = make([]uint64, len(after.sched.Counts))
	}
	for i := range t.schedCount {
		t.schedCount[i] += after.sched.Counts[i] - before.sched.Counts[i]
	}
}

// merge folds another run's totals into t.
func (t *rtTotals) merge(o rtTotals) {
	t.gcCPU += o.gcCPU
	t.allocBytes += o.allocBytes
	t.allocs += o.allocs
	if t.buckets == nil {
		t.buckets = o.buckets
		t.schedCount = make([]uint64, len(o.schedCount))
	}
	for i, c := range o.schedCount {
		t.schedCount[i] += c
	}
}

// histPercentile returns the q-quantile of a runtime/metrics
// histogram: counts[i] samples fall in [buckets[i], buckets[i+1]). It
// interpolates linearly inside the bucket the quantile lands in; an
// unbounded edge bucket reports its finite edge. An empty histogram
// yields 0.
func histPercentile(buckets []float64, counts []uint64, q float64) float64 {
	var total uint64
	for _, c := range counts {
		total += c
	}
	if total == 0 {
		return 0
	}
	rank := q * float64(total)
	var cum float64
	for i, c := range counts {
		if c == 0 {
			continue
		}
		next := cum + float64(c)
		if next >= rank {
			lo, hi := buckets[i], buckets[i+1]
			switch {
			case math.IsInf(lo, -1):
				return hi
			case math.IsInf(hi, 1):
				return lo
			}
			return lo + (hi-lo)*(rank-cum)/float64(c)
		}
		cum = next
	}
	return buckets[len(buckets)-1]
}

// peakRSSMB is the process's peak resident set size in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}
