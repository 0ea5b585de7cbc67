// benchharness regenerates every figure of the paper as a measured table,
// plus the ablations that enforce an invariant (17 tables). Timing the
// system — per ask and per layer — is benchmark/'s job (BENCHMARK.json).
//
// Usage:
//
//	benchharness              # run all experiments
//	benchharness -fig F7      # run one of experiments.Experiments (-h lists the ids)
//	benchharness -fig A6      # step-result memoization: repeated-ask speedup + cross-session dedup
//	benchharness -fig A8      # durability: crash replay vs snapshot restore + warm memo across restart
//	benchharness -fig A11     # resilience: overload control under open-loop multi-tenant load
//	benchharness -fig A12     # flight recorder: exemplars, event log, SLO burn over real HTTP
//	benchharness -seed 7      # change the deterministic seed
//	benchharness -short       # reduced iterations/latencies (smoke mode, used by make bench-smoke)
//	benchharness -json DIR    # also write each table as machine-readable DIR/BENCH_<ID>.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"strings"

	"blueprint/internal/experiments"
)

func main() {
	ids := make([]string, len(experiments.Experiments))
	for i, e := range experiments.Experiments {
		ids[i] = e.ID
	}
	known := strings.Join(ids, ", ")
	fig := flag.String("fig", "all", "experiment id to run ("+known+", or 'all')")
	seed := flag.Int64("seed", 42, "deterministic seed for workloads and the simulated LLM")
	short := flag.Bool("short", false, "smoke mode: reduced iterations and simulated latencies")
	jsonDir := flag.String("json", "", "directory to write BENCH_<ID>.json files (empty: text only)")
	flag.Parse()
	experiments.Short = *short

	if strings.EqualFold(*fig, "all") {
		tables, err := experiments.All(*seed)
		for _, t := range tables {
			fmt.Println(t)
			if werr := writeJSON(*jsonDir, t); werr != nil {
				log.Fatal(werr)
			}
		}
		if err != nil {
			log.Fatal(err)
		}
		return
	}
	for _, e := range experiments.Experiments {
		if !strings.EqualFold(*fig, e.ID) {
			continue
		}
		t, err := e.Run(*seed)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println(t)
		if err := writeJSON(*jsonDir, t); err != nil {
			log.Fatal(err)
		}
		return
	}
	log.Fatalf("unknown experiment %q (want %s, all)", *fig, known)
}

// writeJSON persists one table as DIR/BENCH_<ID>.json so CI can archive the
// raw figures next to the rendered text.
func writeJSON(dir string, t *experiments.Table) error {
	if dir == "" {
		return nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	raw, err := json.MarshalIndent(t, "", "  ")
	if err != nil {
		return err
	}
	path := filepath.Join(dir, "BENCH_"+t.ID+".json")
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}
