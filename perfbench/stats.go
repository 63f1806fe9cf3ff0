package main

import (
	"fmt"
	"math"
	"sort"
	"time"

	"bolt/internal/obs"
)

// percentile is the nearest-rank percentile of xs (unsorted; not
// modified). Failed operations enter as +Inf, so they count as missing
// every latency limit. Empty input reports 0.
func percentile(xs []float64, p float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return obs.NearestRank(s, p)
}

// median is the 50th nearest-rank percentile.
func median(xs []float64) float64 { return percentile(xs, 50) }

// beyond counts the samples strictly above the p-th percentile: a
// percentile is reported as a tail metric only when at least ten
// samples lie beyond it.
func beyond(xs []float64, p float64) int {
	v := percentile(xs, p)
	n := 0
	for _, x := range xs {
		if x > v {
			n++
		}
	}
	return n
}

// dueLatency is an open-loop request's latency: from when it was due to
// be sent to when its result arrived, so a stalled generator charges
// the wait to every request it delayed. lateness is how far behind
// schedule the generator sent it. A request with no result (recv < 0)
// has infinite latency.
func dueLatency(due, sent, recv time.Duration) (latency, lateness time.Duration) {
	lateness = sent - due
	if recv < 0 {
		return time.Duration(math.MaxInt64), lateness
	}
	return recv - due, lateness
}

// ms converts a duration to float milliseconds; the maximal duration
// (no result) maps to +Inf.
func ms(d time.Duration) float64 {
	if d == time.Duration(math.MaxInt64) {
		return math.Inf(1)
	}
	return float64(d) / float64(time.Millisecond)
}

// busyShare is the share of the workers' wall time that the batches
// they ran would occupy at standalone speed: the sum over bucket sizes
// of batches x standalone run seconds, over workers x wall seconds.
// Values well below 1 under a flood mean time went elsewhere
// (scheduling, contention between workers).
func busyShare(batches map[int]int64, runSeconds map[int]float64, workers int, wall float64) float64 {
	if workers < 1 || wall <= 0 {
		return 0
	}
	busy := 0.0
	for b, n := range batches {
		busy += float64(n) * runSeconds[b]
	}
	return busy / (float64(workers) * wall)
}

// spread summarizes repeated timings for a diagnostic line.
func spread(xs []float64) string {
	return fmt.Sprintf("n=%d min %.4g median %.4g max %.4g", len(xs), percentile(xs, 0), median(xs), percentile(xs, 100))
}
