package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

// Verdicts of -compare, per workload and end-to-end metric.
const (
	verdictBetter     = "better"
	verdictSame       = "same"
	verdictWorse      = "worse"
	verdictUnresolved = "unresolved"
)

// verdict compares side B with side A on one metric. B is worse when its
// median is worse than A's by more than the bound. When either side's spread
// (interquartile distance over median) is wider than the bound the samples
// cannot resolve a move of that size: the verdict is unresolved, unless every
// sample of one side beats every sample of the other. B is better when its
// median improves by more than the wider spread.
func verdict(def metricDef, a, b []float64) string {
	medA, medB := median(a), median(b)
	worse := 0.0
	if medA != 0 {
		worse = (medB - medA) / math.Abs(medA)
	}
	if def.Better == "higher" {
		worse = -worse
	}
	noise := math.Max(spread(a), spread(b))
	if noise > def.Bound {
		switch {
		case allBeat(def.Better, b, a):
			return verdictBetter
		case allBeat(def.Better, a, b):
			return verdictWorse
		}
		return verdictUnresolved
	}
	switch {
	case worse > def.Bound:
		return verdictWorse
	case worse < 0 && -worse > noise:
		return verdictBetter
	}
	return verdictSame
}

// allBeat reports whether every sample of xs is better than every sample of ys.
func allBeat(better string, xs, ys []float64) bool {
	if len(xs) == 0 || len(ys) == 0 {
		return false
	}
	sx, sy := sortedCopy(xs), sortedCopy(ys)
	if better == "higher" {
		return sx[0] > sy[len(sy)-1]
	}
	return sx[len(sx)-1] < sy[0]
}

func loadReport(path string) (*report, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	rep := &report{}
	if err := json.Unmarshal(raw, rep); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(rep.Runs) == 0 {
		return nil, fmt.Errorf("%s: no runs", path)
	}
	return rep, nil
}

// samples pools one metric's per-unit values over every run of a report:
// each unit is an independent measurement in a fresh process.
func (rep *report) samples(workload, metric string) []float64 {
	var out []float64
	for _, run := range rep.Runs {
		for _, w := range run.Workloads {
			if w.Name == workload {
				out = append(out, w.EndToEnd[metric].Values...)
			}
		}
	}
	return out
}

// failures pools attempted and failed operations of one workload over every
// pass of every run. fail_ratio is judged on these, not on a median of
// per-unit ratios, which one failing unit among several would leave at 0.
func (rep *report) failures(workload string) (attempted, failed int) {
	for _, run := range rep.Runs {
		for _, w := range run.Workloads {
			if w.Name == workload {
				a, f := w.counts()
				attempted += a
				failed += f
			}
		}
	}
	return
}

// compareFiles prints, per workload and end-to-end metric, each side's
// median and quartiles and the verdict under BENCHMARK.json's bounds. It
// fails on any worse verdict and on a higher fail_ratio.
func compareFiles(out io.Writer, bench *benchmarkFile, aPath, bPath string) error {
	a, err := loadReport(aPath)
	if err != nil {
		return err
	}
	b, err := loadReport(bPath)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "A: %s  commit %s  seed %d  k_scale %g\nB: %s  commit %s  seed %d  k_scale %g\n",
		aPath, a.Commit, a.Seed, a.KScale, bPath, b.Commit, b.Seed, b.KScale)
	return compareReports(out, bench, a, b)
}

func compareReports(out io.Writer, bench *benchmarkFile, a, b *report) error {
	// kScale and the client count are constants of the benchmark; this only
	// catches a file written by other benchmark code or on a one-CPU machine.
	if a.KScale != b.KScale || a.Clients != b.Clients {
		return fmt.Errorf("the two results were measured at different sizes (k_scale %g/%g, clients %d/%d)", a.KScale, b.KScale, a.Clients, b.Clients)
	}
	bad := 0
	const row = "  %-18s %-6s %36s %36s  %6s  %s\n"
	for _, sp := range specs {
		fmt.Fprintf(out, "\n== %s\n"+row, sp.Name, "metric", "unit", "A median [q1, q3]", "B median [q1, q3]", "bound", "verdict")
		for _, def := range bench.EndToEnd {
			xa, xb := a.samples(sp.Name, def.Name), b.samples(sp.Name, def.Name)
			if len(xa) == 0 || len(xb) == 0 {
				continue
			}
			v := verdict(def, xa, xb)
			if v == verdictWorse {
				bad++
			}
			fmt.Fprintf(out, row, def.Name, def.Unit, describe(xa), describe(xb), fmt.Sprintf("%.1f%%", def.Bound*100), v)
		}
		// An absolute bound: any rise in the share of failed operations is worse.
		attA, failA := a.failures(sp.Name)
		attB, failB := b.failures(sp.Name)
		v := verdictSame
		if ratio(float64(failB), float64(attB)) > ratio(float64(failA), float64(attA)) {
			v = verdictWorse
			bad++
		}
		fmt.Fprintf(out, row, failRatio.Name, failRatio.Unit, fmt.Sprintf("%d / %d", failA, attA), fmt.Sprintf("%d / %d", failB, attB), "0", v)
	}
	if bad > 0 {
		return fmt.Errorf("%d metrics are worse in B", bad)
	}
	return nil
}

func describe(xs []float64) string {
	q1, q3 := quartiles(xs)
	return fmt.Sprintf("%.4g [%.4g, %.4g] n=%d", median(xs), q1, q3, len(xs))
}

// printSpreads reports, after -repeat N, the run-to-run spread of every
// end-to-end metric (over the N per-run medians) beside its bound.
func printSpreads(out io.Writer, bench *benchmarkFile, rep *report) {
	fmt.Fprintf(out, "\n== run-to-run spread over %d runs (interquartile distance / median of the per-run medians)\n", len(rep.Runs))
	for _, sp := range specs {
		for _, def := range bench.EndToEnd {
			var meds []float64
			for _, run := range rep.Runs {
				for _, w := range run.Workloads {
					if w.Name == sp.Name {
						meds = append(meds, w.EndToEnd[def.Name].Median)
					}
				}
			}
			s := spread(meds)
			note := ""
			switch {
			case s > def.Bound:
				note = "  WIDER THAN THE BOUND"
			case s > def.Bound/3:
				note = "  above a third of the bound"
			}
			fmt.Fprintf(out, "  %-14s %-18s median %12.4f %-5s spread %5.2f%%  bound %4.1f%%%s\n", sp.Name, def.Name, median(meds), def.Unit, s*100, def.Bound*100, note)
		}
	}
}
