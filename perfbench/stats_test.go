package main

import (
	"math"
	"testing"
	"time"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{15, 20, 35, 40, 50}
	for _, c := range []struct{ p, want float64 }{
		{0, 15}, {5, 15}, {30, 20}, {40, 20}, {50, 35}, {95, 50}, {100, 50},
	} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("percentile(%v, %v) = %v, want %v", xs, c.p, got, c.want)
		}
	}
	if xs[0] != 15 || xs[4] != 50 {
		t.Errorf("percentile reordered its input: %v", xs)
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of no samples = %v, want 0", got)
	}
}

func TestPercentileCountsFailuresAsInfinite(t *testing.T) {
	// Two of ten requests failed: p80 still reads a real latency, p90
	// misses every limit.
	xs := []float64{math.Inf(1), 1, 2, 3, 4, 5, 6, 7, 8, math.Inf(1)}
	if got := percentile(xs, 80); got != 8 {
		t.Errorf("p80 = %v, want 8", got)
	}
	if got := percentile(xs, 90); !math.IsInf(got, 1) {
		t.Errorf("p90 = %v, want +Inf", got)
	}
	if got := beyond(xs, 80); got != 2 {
		t.Errorf("beyond p80 = %d, want 2", got)
	}
}

func TestDueLatency(t *testing.T) {
	m := time.Millisecond
	// On time: latency runs from the due time.
	if l, late := dueLatency(10*m, 10*m, 25*m); l != 15*m || late != 0 {
		t.Errorf("on time: latency %v lateness %v, want 15ms 0", l, late)
	}
	// A generator 4 ms late charges those 4 ms to the request.
	if l, late := dueLatency(10*m, 14*m, 25*m); l != 15*m || late != 4*m {
		t.Errorf("late: latency %v lateness %v, want 15ms 4ms", l, late)
	}
	// A failed request has no result and infinite latency.
	l, _ := dueLatency(10*m, 10*m, -1)
	if got := ms(l); !math.IsInf(got, 1) {
		t.Errorf("failed: latency %v ms, want +Inf", got)
	}
}

func TestBusyShare(t *testing.T) {
	// Two workers for 2 s: 10 batches of 1 at 0.1 s and 2 batches of 8
	// at 0.5 s keep them busy 2 s of their 4.
	got := busyShare(map[int]int64{1: 10, 8: 2}, map[int]float64{1: 0.1, 8: 0.5}, 2, 2)
	if math.Abs(got-0.5) > 1e-12 {
		t.Errorf("busyShare = %v, want 0.5", got)
	}
	if got := busyShare(map[int]int64{1: 1}, map[int]float64{1: 1}, 0, 1); got != 0 {
		t.Errorf("busyShare with no workers = %v, want 0", got)
	}
}
