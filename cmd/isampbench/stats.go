package main

import (
	"math"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"
)

// percentile returns the nearest-rank p-quantile (0 < p < 1) of xs.
// ok reports whether at least ten samples lie beyond it, the rule for
// quoting a tail percentile: p99 needs 1000 samples.
func percentile(xs []float64, p float64) (v float64, ok bool) {
	if len(xs) == 0 {
		return 0, false
	}
	xs = sorted(xs)
	n := len(xs)
	rank := int(math.Ceil(p * float64(n)))
	if rank < 1 {
		rank = 1
	}
	return xs[rank-1], n-rank >= 10
}

// median returns the middle value of xs (the mean of the middle two for
// an even count).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	xs = sorted(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// quartiles returns the first and third quartiles of xs by the
// "exclusive" method of Python's statistics.quantiles(xs, n=4), the
// method the run-to-run spread of a metric is judged by. Fewer than two
// values give the value itself.
func quartiles(xs []float64) (q1, q3 float64) {
	xs = sorted(xs)
	n := len(xs)
	switch n {
	case 0:
		return 0, 0
	case 1:
		return xs[0], xs[0]
	}
	q := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		return (xs[j-1]*(4-delta) + xs[j]*delta) / 4
	}
	return q(1), q(3)
}

// sorted returns a sorted copy of xs.
func sorted(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// pct returns 100·a/b, or 0 when b is 0.
func pct(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return 100 * a / b
}

// perOp returns a/n, or 0 when n is 0.
func perOp(a float64, n int) float64 {
	if n == 0 {
		return 0
	}
	return a / float64(n)
}

// selfRSSMiB returns this process's peak resident set size (VmHWM).
func selfRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// goRuntime samples the Go runtime counters behind runtime.* metrics.
type goRuntime struct {
	allocBytes      float64
	gcCPU, totalCPU float64
}

func readGoRuntime() goRuntime {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	var r goRuntime
	if s[0].Value.Kind() == metrics.KindUint64 {
		r.allocBytes = float64(s[0].Value.Uint64())
	}
	if s[1].Value.Kind() == metrics.KindFloat64 && s[2].Value.Kind() == metrics.KindFloat64 {
		r.gcCPU, r.totalCPU = s[1].Value.Float64(), s[2].Value.Float64()
	}
	return r
}

// runtimeMetrics sets runtime.alloc_bytes_per_op and runtime.gc_cpu_pct
// for the interval between two samples.
func runtimeMetrics(m map[string]float64, before, after goRuntime, ops int) {
	m["runtime.alloc_bytes_per_op"] = perOp(after.allocBytes-before.allocBytes, ops)
	m["runtime.gc_cpu_pct"] = pct(after.gcCPU-before.gcCPU, after.totalCPU-before.totalCPU)
}
