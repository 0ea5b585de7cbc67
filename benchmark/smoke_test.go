package main

import (
	"io"
	"testing"
)

// TestSmoke runs all five workloads at 1/32 size and every layer probe
// against the real program: no operation may fail, and every metric
// BENCHMARK.json names must come out. A change to any layer's API or answers
// breaks this test, not the next benchmark run.
func TestSmoke(t *testing.T) {
	bench, err := loadBenchmarkFile("..")
	if err != nil {
		t.Fatal(err)
	}
	out := io.Discard
	if testing.Verbose() {
		out = testWriter{t}
	}
	if err := runSmoke(out, bench); err != nil {
		t.Fatal(err)
	}
}

type testWriter struct{ t *testing.T }

func (w testWriter) Write(p []byte) (int, error) {
	w.t.Log(string(p))
	return len(p), nil
}

// TestBenchmarkFileNamesTheWorkloads keeps BENCHMARK.json and the workload
// table in step.
func TestBenchmarkFileNamesTheWorkloads(t *testing.T) {
	bench, err := loadBenchmarkFile("..")
	if err != nil {
		t.Fatal(err)
	}
	if len(bench.Workloads) != len(specs) {
		t.Fatalf("BENCHMARK.json names %d workloads, the benchmark has %d", len(bench.Workloads), len(specs))
	}
	for i, w := range bench.Workloads {
		if w.Name != specs[i].Name {
			t.Errorf("workload %d is %q in BENCHMARK.json and %q in the benchmark", i, w.Name, specs[i].Name)
		}
	}
	if _, ok := bench.endToEnd("setup_s"); !ok {
		t.Error("BENCHMARK.json lacks setup_s")
	}
}
