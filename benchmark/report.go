package main

import (
	"encoding/json"
	"fmt"
	"io"
	"maps"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"time"
)

// metricDef is one metric as BENCHMARK.json names it. That file is the single
// place names, units, directions and bounds live; the program reads it.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

// failRatio is reported by every full run but is not a BENCHMARK.json metric:
// it is 0 on a healthy program (the contract wants metrics that are never 0)
// and reaches the driver as the result line's failed/attempted instead.
var failRatio = metricDef{Name: "fail_ratio", Unit: "ratio", Better: "lower"}

// loadBenchmarkFile reads BENCHMARK.json from the repository root dir.
func loadBenchmarkFile(dir string) (*benchmarkFile, error) {
	raw, err := os.ReadFile(filepath.Join(dir, "BENCHMARK.json"))
	if err != nil {
		return nil, fmt.Errorf("run from the repository root: %w", err)
	}
	var b benchmarkFile
	if err := json.Unmarshal(raw, &b); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &b, nil
}

func (b *benchmarkFile) endToEnd(name string) (metricDef, bool) {
	if name == failRatio.Name {
		return failRatio, true
	}
	for _, m := range b.EndToEnd {
		if m.Name == name {
			return m, true
		}
	}
	return metricDef{}, false
}

// dist is one metric over the units of a pass: the reported value is the
// median, the per-unit values stay in the result for -compare.
type dist struct {
	Median float64   `json:"median"`
	Values []float64 `json:"values"`
}

func newDist(values []float64) dist { return dist{Median: median(values), Values: values} }

// passResult is one pass (end-to-end or traced) of one workload: the units it
// ran, their summed wall time (each unit's whole child process) and their
// summed operation counts.
type passResult struct {
	Units    int                 `json:"units"`
	WallS    float64             `json:"wall_s"`
	Ops      map[string]*opCount `json:"ops"`
	Failures []string            `json:"failures,omitempty"`
}

type workloadResult struct {
	Name           string `json:"name"`
	Sessions       int    `json:"sessions"`
	AsksPerSession int    `json:"asks_per_session"`
	// AskSamples is the number of ask latencies behind ask_p50_us/ask_p95_us
	// in one unit; TailPct is the highest percentile that leaves ten samples
	// or more beyond it.
	AskSamples int             `json:"ask_samples"`
	TailPct    float64         `json:"tail_pct"`
	EndToEnd   map[string]dist `json:"end_to_end"`
	// HostSpeed is the host's speed around each end-to-end unit; the time
	// metrics in EndToEnd are corrected by it (calib.go).
	HostSpeed dist                   `json:"host_speed"`
	PerLayer  map[string]dist        `json:"per_layer,omitempty"`
	Passes    map[string]*passResult `json:"passes"`
}

func (w *workloadResult) counts() (attempted, failed int) {
	for _, p := range w.Passes {
		for _, c := range p.Ops {
			attempted += c.Attempted
			failed += c.Failed
		}
	}
	return
}

// runReport is one execution of the whole set.
type runReport struct {
	Workloads []*workloadResult `json:"workloads"`
}

// report is the result file: what was measured and on what.
type report struct {
	Commit     string       `json:"commit"`
	GoVersion  string       `json:"go_version"`
	GOMAXPROCS int          `json:"gomaxprocs"`
	NumCPU     int          `json:"nproc"`
	Clients    int          `json:"clients"`
	Seed       int64        `json:"seed"`
	KScale     float64      `json:"k_scale"`
	Seconds    float64      `json:"seconds_per_pass"`
	When       string       `json:"when"`
	Runs       []*runReport `json:"runs"`
}

func newReport(seed int64, seconds float64) *report {
	return &report{
		Commit: commit(), GoVersion: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU: runtime.NumCPU(), Clients: clientCount(), Seed: seed, KScale: kScale, Seconds: seconds,
		When: time.Now().UTC().Format(time.RFC3339),
	}
}

// commit names the source the numbers belong to; a checkout that is not a
// git repository (the driver's) has none to name.
func commit() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	rev := strings.TrimSpace(string(out))
	if dirty, err := exec.Command("git", "status", "--porcelain", "--untracked-files=no").Output(); err == nil && len(dirty) > 0 {
		rev += "-dirty"
	}
	return rev
}

func writeJSON(dir, name string, v any) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	raw, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, name), append(raw, '\n'), 0o644)
}

// print writes every metric of one workload by name with its unit.
func (w *workloadResult) print(out io.Writer, b *benchmarkFile) {
	fmt.Fprintf(out, "\n== %s  (S=%d sessions x K=%d asks", w.Name, w.Sessions, w.AsksPerSession)
	for _, name := range []string{"end_to_end", "traced"} {
		if p := w.Passes[name]; p != nil {
			fmt.Fprintf(out, "; %s pass: %d units, %.1fs", name, p.Units, p.WallS)
		}
	}
	fmt.Fprintln(out, ")")
	attempted, failed := w.counts()
	fmt.Fprintf(out, "  operations attempted %d, failed %d\n", attempted, failed)
	fmt.Fprintf(out, "  host speed %.3f of the reference machine's (times below are corrected by it: raw time = time / speed)\n", w.HostSpeed.Median)
	for _, n := range slices.Sorted(maps.Keys(w.EndToEnd)) {
		d := w.EndToEnd[n]
		def, _ := b.endToEnd(n)
		note := ""
		switch n {
		case "ask_p50_us", "ask_p95_us":
			note = fmt.Sprintf("  (%d asks per unit; highest percentile with 10 samples beyond: p%g)", w.AskSamples, w.TailPct)
		}
		fmt.Fprintf(out, "  %-28s %14.4f %-6s spread %5.1f%% of bound %4.1f%%%s\n",
			n, d.Median, def.Unit, spread(d.Values)*100, def.Bound*100, note)
	}
	units := map[string]string{}
	for _, m := range b.PerLayer {
		units[m.Name] = m.Unit
	}
	for _, n := range slices.Sorted(maps.Keys(w.PerLayer)) {
		fmt.Fprintf(out, "  %-36s %14.4f %s\n", n, w.PerLayer[n].Median, units[n])
	}
	for _, p := range w.Passes {
		for _, f := range p.Failures {
			fmt.Fprintf(out, "  FAILED %s\n", f)
		}
	}
}
