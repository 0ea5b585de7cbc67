package main

import (
	"math"
	"testing"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{15, 20, 35, 40, 50}
	for _, c := range []struct{ p, want float64 }{
		{5, 15}, {20, 15}, {21, 20}, {40, 20}, {50, 35}, {95, 50}, {100, 50},
	} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of nothing = %v, want 0", got)
	}
	// 100 samples 1..100: p95 is the 95th value and leaves five beyond it.
	var hundred []float64
	for i := 1; i <= 100; i++ {
		hundred = append(hundred, float64(i))
	}
	if got := percentile(hundred, 95); got != 95 {
		t.Errorf("p95 of 1..100 = %v, want 95", got)
	}
	if got := samplesBeyond(100, 95); got != 5 {
		t.Errorf("samplesBeyond(100, 95) = %d, want 5", got)
	}
}

func TestHighestSupportedPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{0, 0}, {19, 0}, {20, 50}, {99, 50}, {100, 90}, {199, 90}, {200, 95}, {999, 95},
		{1000, 99}, {9999, 99}, {10000, 99.9},
	} {
		if got := highestSupported(c.n); got != c.want {
			t.Errorf("highestSupported(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
	ten := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	q1, q3 := quartiles(ten)
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v, %v, want 2.75, 8.25", q1, q3)
	}
	if got := median(ten); got != 5.5 {
		t.Errorf("median(1..10) = %v, want 5.5", got)
	}
	if got, want := spread(ten), 1.0; math.Abs(got-want) > 1e-12 {
		t.Errorf("spread(1..10) = %v, want %v", got, want)
	}
	// statistics.quantiles([3, 1], n=4) == [0.5, 2.0, 3.5]
	if q1, q3 := quartiles([]float64{3, 1}); q1 != 0.5 || q3 != 3.5 {
		t.Errorf("quartiles([3,1]) = %v, %v, want 0.5, 3.5", q1, q3)
	}
	if q1, q3 := quartiles([]float64{7}); q1 != 7 || q3 != 7 {
		t.Errorf("quartiles([7]) = %v, %v, want 7, 7", q1, q3)
	}
}

func TestSpeedCorrect(t *testing.T) {
	bench := &benchmarkFile{EndToEnd: []metricDef{
		{Name: "ask_p50_us", Unit: "us"}, {Name: "setup_s", Unit: "s"},
		{Name: "asks_per_s", Unit: "1/s"}, {Name: "alloc_kb_per_ask", Unit: "KB"},
	}}
	// A host at half speed: times read double, rates half; sizes do not move.
	got := map[string]float64{"ask_p50_us": 2000, "setup_s": 0.1, "asks_per_s": 500, "alloc_kb_per_ask": 300, "fail_ratio": 0}
	speedCorrect(bench, got, 0.5)
	want := map[string]float64{"ask_p50_us": 1000, "setup_s": 0.05, "asks_per_s": 1000, "alloc_kb_per_ask": 300, "fail_ratio": 0}
	for n, w := range want {
		if math.Abs(got[n]-w) > 1e-12 {
			t.Errorf("%s = %v, want %v", n, got[n], w)
		}
	}
	if s := (refResult{MedianMS: 2 * refNominalMS}).speed(); s != 0.5 {
		t.Errorf("speed of a host that takes twice the nominal time = %v, want 0.5", s)
	}
}

// TestRefWorkIsFixed: the reference work is the same work every time.
func TestRefWorkIsFixed(t *testing.T) {
	a, b := newRefWorker(), newRefWorker()
	defer close(a.ping)
	defer close(b.ping)
	for n := 0; n < 3; n++ {
		if x, y := a.rep(n), b.rep(n); x != y || x == 0 {
			t.Fatalf("repetition %d summed to %d and %d", n, x, y)
		}
	}
}
