package main

import (
	"io"
	"testing"
)

func TestVerdictAtTheBoundEdges(t *testing.T) {
	lower := metricDef{Name: "ask_p50_us", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "asks_per_s", Better: "higher", Bound: 0.10}
	flat := func(v float64) []float64 { return []float64{v, v, v, v, v} }
	noisy := func(v float64) []float64 { return []float64{v * 0.8, v * 0.9, v, v * 1.1, v * 1.2} }
	for _, c := range []struct {
		name string
		def  metricDef
		a, b []float64
		want string
	}{
		{"worse by exactly the bound is not a regression", lower, flat(100), flat(110), verdictSame},
		{"worse by more than the bound", lower, flat(100), flat(110.5), verdictWorse},
		{"higher-is-better: lower by exactly the bound", higher, flat(100), flat(90), verdictSame},
		{"higher-is-better: lower by more than the bound", higher, flat(100), flat(89.5), verdictWorse},
		{"identical", lower, flat(100), flat(100), verdictSame},
		{"improvement beyond the spread", lower, flat(100), flat(95), verdictBetter},
		{"higher-is-better improvement", higher, flat(100), flat(120), verdictBetter},
		{"improvement inside the spread", lower, []float64{98, 99, 100, 101, 102}, []float64{97, 98, 99, 100, 101}, verdictSame},
		{"spread wider than the bound", lower, noisy(100), noisy(105), verdictUnresolved},
		{"wide spread but every B beats every A", lower, noisy(100), noisy(50), verdictBetter},
		{"wide spread and every A beats every B", lower, noisy(50), noisy(100), verdictWorse},
	} {
		if got := verdict(c.def, c.a, c.b); got != c.want {
			t.Errorf("%s: verdict = %s, want %s", c.name, got, c.want)
		}
	}
}

// reportWithUnits builds a one-workload report of len(failed) units, each of
// 100 asks taking 100 us, of which failed[i] failed.
func reportWithUnits(failed ...int) *report {
	w := &workloadResult{Name: specs[0].Name, EndToEnd: map[string]dist{}, Passes: map[string]*passResult{}}
	var p50, ratios []float64
	for _, f := range failed {
		w.pass("end_to_end").add(&unitResult{Ops: map[string]*opCount{opAsk: {Attempted: 100, Succeeded: 100 - f, Failed: f}}})
		p50 = append(p50, 100)
		ratios = append(ratios, float64(f)/100)
	}
	w.EndToEnd["ask_p50_us"] = newDist(p50)
	w.EndToEnd[failRatio.Name] = newDist(ratios)
	return &report{KScale: kScale, Clients: 2, Runs: []*runReport{{Workloads: []*workloadResult{w}}}}
}

func TestCompareFailsOnAnyRiseInFailedOperations(t *testing.T) {
	bench := &benchmarkFile{EndToEnd: []metricDef{{Name: "ask_p50_us", Unit: "us", Better: "lower", Bound: 0.1}}}
	clean, oneBadUnit := reportWithUnits(0, 0, 0), reportWithUnits(0, 3, 0)
	// One failing unit of three leaves the median per-unit fail_ratio at 0.
	if err := compareReports(io.Discard, bench, clean, oneBadUnit); err == nil {
		t.Error("B has failed operations in one unit of three and A has none: want an error")
	}
	if err := compareReports(io.Discard, bench, oneBadUnit, oneBadUnit); err != nil {
		t.Errorf("the same failures on both sides: %v", err)
	}
	if err := compareReports(io.Discard, bench, oneBadUnit, clean); err != nil {
		t.Errorf("fewer failures in B: %v", err)
	}
}
