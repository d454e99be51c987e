package main

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"syscall"
	"time"
)

// minBeyond is how many samples must lie above a reported percentile:
// a tail resting on fewer is a handful of unlucky requests, not a
// property of the system, so percentile refuses it.
const minBeyond = 10

var errNoSamples = errors.New("no samples")

// percentile returns the nearest-rank p-th percentile (0 < p < 100) of
// samples, which must be sorted ascending. It refuses a percentile with
// fewer than minBeyond samples above its rank: p99 needs at least 1000
// samples, p90 at least 100, p50 at least 20.
func percentile(sorted []float64, p float64) (float64, error) {
	n := len(sorted)
	if n == 0 {
		return 0, errNoSamples
	}
	if p <= 0 || p >= 100 {
		return 0, fmt.Errorf("percentile %g outside (0, 100)", p)
	}
	// p*n is exact for the integer percentiles used here, so the
	// ceiling does not pick up float rounding at exact ranks.
	rank := int(math.Ceil(p * float64(n) / 100))
	if rank < 1 {
		rank = 1
	}
	if beyond := n - rank; beyond < minBeyond {
		return 0, fmt.Errorf("p%g of %d samples has %d beyond it, need %d", p, n, beyond, minBeyond)
	}
	return sorted[rank-1], nil
}

// tailPercentile is percentile over n samples of which only the largest
// are kept, in tail (sorted ascending): enough for a high percentile of
// several repetitions pooled, without holding every sample.
func tailPercentile(tail []float64, n int, p float64) (float64, error) {
	if n == 0 {
		return 0, errNoSamples
	}
	if p <= 0 || p >= 100 {
		return 0, fmt.Errorf("percentile %g outside (0, 100)", p)
	}
	rank := max(int(math.Ceil(p*float64(n)/100)), 1)
	beyond := n - rank
	if beyond < minBeyond {
		return 0, fmt.Errorf("p%g of %d samples has %d beyond it, need %d", p, n, beyond, minBeyond)
	}
	if beyond >= len(tail) {
		return 0, fmt.Errorf("p%g of %d samples needs the top %d, only %d kept", p, n, beyond+1, len(tail))
	}
	return tail[len(tail)-1-beyond], nil
}

// sortedMillis converts latencies to sorted milliseconds. A failed
// request is recorded as +Inf, so it lands above every latency limit.
func sortedMillis(lat []time.Duration, failed int) []float64 {
	out := make([]float64, 0, len(lat)+failed)
	for _, d := range lat {
		out = append(out, float64(d)/1e6)
	}
	for i := 0; i < failed; i++ {
		out = append(out, math.Inf(1))
	}
	sort.Float64s(out)
	return out
}

// ratio is a fraction that keeps its base, so a report can say how many
// events a share rests on.
type ratio struct {
	num, den uint64
}

// value is num/den, or NaN for an empty base.
func (r ratio) value() float64 {
	if r.den == 0 {
		return math.NaN()
	}
	return float64(r.num) / float64(r.den)
}

func (r ratio) String() string {
	return fmt.Sprintf("%.4f (%d/%d)", r.value(), r.num, r.den)
}

// cpuTimes is the process's cumulative user and system CPU time.
type cpuTimes struct {
	user, sys time.Duration
}

// readCPU samples getrusage(RUSAGE_SELF): every thread of the process,
// including the garbage collector and any server goroutines in it.
func readCPU() cpuTimes {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return cpuTimes{}
	}
	return cpuTimes{
		user: time.Duration(ru.Utime.Nano()),
		sys:  time.Duration(ru.Stime.Nano()),
	}
}

// cpuPerRequest is the user+system CPU spent between two samples,
// divided by the requests completed between them, in microseconds.
func cpuPerRequest(before, after cpuTimes, requests int) (float64, error) {
	if requests <= 0 {
		return 0, fmt.Errorf("cpu per request over %d requests", requests)
	}
	spent := (after.user - before.user) + (after.sys - before.sys)
	if spent < 0 {
		return 0, fmt.Errorf("cpu time went backwards by %v", -spent)
	}
	return float64(spent) / 1e3 / float64(requests), nil
}

// median of an unsorted copy of xs; NaN when empty.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}
