package main

import (
	"fmt"
	"io"
	"math"
	"os"
)

// runSmoke runs every workload once at 1/32 size in this process, traced, and
// fails unless no operation failed and every metric BENCHMARK.json names came
// out finite: an API change in any layer breaks this, not the next
// benchmark run.
func runSmoke(out io.Writer, bench *benchmarkFile) error {
	work, err := os.MkdirTemp("", "benchmark-smoke-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(work)
	probed, err := runProbes(work, true)
	if err != nil {
		return fmt.Errorf("probes: %w", err)
	}
	for _, sp := range specs {
		res, err := runUnit(unitConfig{Workload: sp.Name, Seed: 1, Smoke: true, Traced: true, WorkDir: work})
		if err != nil {
			return fmt.Errorf("%s: %w", sp.Name, err)
		}
		attempted, failed := res.attempted()
		fmt.Fprintf(out, "%-14s S=%d K=%d attempted %d failed %d\n", sp.Name, res.Sessions, res.AsksPerSession, attempted, failed)
		if failed > 0 {
			return fmt.Errorf("%s: %d of %d operations failed: %v", sp.Name, failed, attempted, res.Failures)
		}
		layer := map[string]float64{"obs.trace_overhead_pct": 0, "proc.host_speed": 1} // the runner's: need two passes and a gauge; not a smoke matter
		for n, v := range probed {
			layer[n] = v
		}
		for n, v := range res.Layer {
			layer[n] = v
		}
		if err := allPresent(sp.Name, bench.EndToEnd, res.E2E); err != nil {
			return err
		}
		if err := allPresent(sp.Name, bench.PerLayer, layer); err != nil {
			return err
		}
	}
	return nil
}

func allPresent(workload string, defs []metricDef, got map[string]float64) error {
	for _, def := range defs {
		v, ok := got[def.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("%s: metric %s is missing or not finite (%v)", workload, def.Name, v)
		}
	}
	return nil
}
