package main

import (
	"fmt"
	"math"
	"runtime"
	"runtime/metrics"
	"slices"
	"time"
)

// metric is one named measurement as the result line prints it.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is what one workload run hands back to main: the operation
// tally behind failed_frac, the output-check failures, the end-to-end
// metrics (untraced run) or the per-layer metrics (traced run), and
// human-readable report lines printed above the result line.
type result struct {
	attempted int
	failed    int
	problems  []string
	metrics   map[string]metric
	report    []string
}

func newResult() *result { return &result{metrics: map[string]metric{}} }

func (r *result) set(name string, v float64, unit string) { r.metrics[name] = metric{v, unit} }

// fail records one failed or wrong operation with its reason.
func (r *result) fail(format string, args ...any) {
	r.failed++
	if len(r.problems) < 20 {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

// quantile returns the q-quantile of xs by linear interpolation
// between closest ranks; xs need not be sorted. Empty input gives 0.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func sum(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// runtimeSample reads the cumulative heap-allocation count and the GC
// CPU-class counters; two samples bracket a timed section. The
// allocation count comes from runtime.ReadMemStats, which is exact
// (runtime/metrics lags by whatever the per-P caches hold); the brief
// stop-the-world it costs is taken only at section boundaries.
type runtimeSample struct {
	allocBytes uint64
	gcCPU      float64
	totalCPU   float64
}

var cpuKeys = []string{
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func sampleRuntime() runtimeSample {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	s := make([]metrics.Sample, len(cpuKeys))
	for i, k := range cpuKeys {
		s[i].Name = k
	}
	metrics.Read(s)
	return runtimeSample{
		allocBytes: m.TotalAlloc,
		gcCPU:      s[0].Value.Float64(),
		totalCPU:   s[1].Value.Float64(),
	}
}

// allocMB is the heap allocated between two samples, in MB.
func allocMB(a, b runtimeSample) float64 { return float64(b.allocBytes-a.allocBytes) / 1e6 }

// gcFrac is the share of available CPU time the garbage collector took
// between two samples. The runtime refreshes these estimates at each
// GC cycle, so the window should span several.
func gcFrac(a, b runtimeSample) float64 {
	if b.totalCPU <= a.totalCPU {
		return 0
	}
	return (b.gcCPU - a.gcCPU) / (b.totalCPU - a.totalCPU)
}

// minSetups and maxSetups bound how often timeSetup builds: enough
// set-ups that their median stands still on a shared host.
const minSetups, maxSetups = 5, 200

// timeSetup runs build at least minSetups times, and up to maxSetups
// while the set-ups so far took under a second, and returns the median
// wall time in seconds with the last build's product; build's error
// aborts.
// A non-nil release disposes of each earlier product before the next
// build starts, outside the timed window.
func timeSetup[T any](build func() (T, error), release func(T) error) (float64, T, error) {
	var out T
	var times []float64
	for len(times) < minSetups || (len(times) < maxSetups && sum(times) < 1) {
		if len(times) > 0 && release != nil {
			if err := release(out); err != nil {
				return 0, out, err
			}
		}
		start := time.Now()
		v, err := build()
		if err != nil {
			return 0, out, err
		}
		times = append(times, time.Since(start).Seconds())
		out = v
	}
	return median(times), out, nil
}
