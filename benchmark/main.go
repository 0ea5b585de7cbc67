// Command benchmark is the repository's benchmark: five fixed-work,
// closed-loop ask workloads driven over HTTP against the real httpapi
// handler, with every answer checked, a traced pass and direct layer probes.
// See README.md in this directory.
//
//	go run ./benchmark -seed 1 -out benchmark/out        every workload, every metric, one result file
//	go run ./benchmark -repeat 5                         the same five times, with the spread beside each bound
//	go run ./benchmark -compare A.json B.json            verdict per workload and end-to-end metric
//	go run ./benchmark -smoke                            all five workloads at 1/32 size, in-process
//	... -workload NAME -seed N -seconds S -trace 0|1     one workload, one JSON result line (BENCHMARK.json's command)
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
)

// options are the command line.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    int
	out      string
	work     string
	repeat   int
	compare  bool
	smoke    bool
	unit     string
	probe    bool
	ref      bool
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "run this one workload and print one JSON result line")
	flag.Int64Var(&o.seed, "seed", 1, "workload seed: the same seed gives the same requests")
	flag.Float64Var(&o.seconds, "seconds", 0, "how long one pass of one workload measures (default: BENCHMARK.json run_seconds)")
	flag.IntVar(&o.trace, "trace", 0, "with -workload: 0 reports the end-to-end metrics, 1 the per-layer metrics")
	flag.StringVar(&o.out, "out", filepath.Join("benchmark", "out"), "directory for result.json and trace-<workload>.json")
	flag.StringVar(&o.work, "work", "", "scratch directory (default: -out, or .bench_build/work with -workload)")
	flag.IntVar(&o.repeat, "repeat", 1, "run the whole set this many times and report the measured spread")
	flag.BoolVar(&o.compare, "compare", false, "compare two result files: -compare A.json B.json")
	flag.BoolVar(&o.smoke, "smoke", false, "run every workload once at 1/32 size, in-process, and check it")
	flag.StringVar(&o.unit, "unit", "", "internal: run one unit from this JSON config")
	flag.BoolVar(&o.probe, "probe", false, "internal: run the layer probes")
	flag.BoolVar(&o.ref, "ref", false, "internal: run the reference work that gauges the host's speed")
	flag.Parse()
	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func run(o options) error {
	switch {
	case o.unit != "":
		var cfg unitConfig
		if err := json.Unmarshal([]byte(o.unit), &cfg); err != nil {
			return err
		}
		res, err := runUnit(cfg)
		if err != nil {
			return err
		}
		return json.NewEncoder(os.Stdout).Encode(res)
	case o.ref:
		return json.NewEncoder(os.Stdout).Encode(runRef())
	case o.probe:
		res, err := runProbes(o.work, false)
		if err != nil {
			return err
		}
		return json.NewEncoder(os.Stdout).Encode(res)
	}
	b, err := loadBenchmarkFile(".")
	if err != nil {
		return err
	}
	switch {
	case o.compare:
		if flag.NArg() != 2 {
			return fmt.Errorf("usage: -compare A.json B.json")
		}
		return compareFiles(os.Stdout, b, flag.Arg(0), flag.Arg(1))
	case o.smoke:
		return runSmoke(os.Stdout, b)
	}
	if o.seconds <= 0 {
		o.seconds = float64(b.RunSeconds)
	}
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	r := &runner{exe: exe, workDir: o.work, bench: b}
	if o.workload != "" {
		if r.workDir == "" {
			r.workDir = filepath.Join(".bench_build", "work")
		}
		return contractRun(r, b, o.workload, o.seed, o.seconds, o.trace == 1)
	}
	if r.workDir == "" {
		r.workDir = o.out
	}
	return fullRun(r, b, o.seed, o.seconds, o.repeat, o.out)
}

// contractRun is BENCHMARK.json's command: one workload, one JSON object on
// the last line of standard output.
func contractRun(r *runner, b *benchmarkFile, name string, seed int64, seconds float64, traced bool) error {
	if _, err := specByName(name); err != nil {
		return err
	}
	w, err := r.workload(name, seed, seconds, traced)
	if err != nil {
		return err
	}
	w.print(os.Stderr, b)
	defs, got := b.EndToEnd, w.EndToEnd
	if traced {
		defs, got = b.PerLayer, w.PerLayer
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]value{}
	for _, def := range defs {
		d, ok := got[def.Name]
		if !ok {
			return fmt.Errorf("%s: metric %s of BENCHMARK.json was not measured", name, def.Name)
		}
		metrics[def.Name] = value{d.Median, def.Unit}
	}
	attempted, failed := w.counts()
	return json.NewEncoder(os.Stdout).Encode(map[string]any{
		"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics,
	})
}

// fullRun measures every workload (end-to-end pass, then traced pass and
// probes), prints every metric and writes one result file. It fails when any
// operation failed its check.
func fullRun(r *runner, b *benchmarkFile, seed int64, seconds float64, repeat int, out string) error {
	rep := newReport(seed, seconds)
	failedTotal := 0
	for i := 0; i < repeat; i++ {
		one := &runReport{}
		for _, sp := range specs {
			w, err := r.workload(sp.Name, seed, seconds, false)
			if err != nil {
				return err
			}
			t, err := r.workload(sp.Name, seed, seconds, true)
			if err != nil {
				return err
			}
			w.PerLayer = t.PerLayer
			for name, p := range t.Passes {
				w.Passes[name] = p
			}
			w.print(os.Stdout, b)
			_, failed := w.counts()
			failedTotal += failed
			one.Workloads = append(one.Workloads, w)
		}
		rep.Runs = append(rep.Runs, one)
	}
	if repeat > 1 {
		printSpreads(os.Stdout, b, rep)
	}
	if err := writeJSON(out, "result.json", rep); err != nil {
		return err
	}
	fmt.Printf("\nresult: %s\n", filepath.Join(out, "result.json"))
	if failedTotal > 0 {
		return fmt.Errorf("%d operations failed their check", failedTotal)
	}
	return nil
}
