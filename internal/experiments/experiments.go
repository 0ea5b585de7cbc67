// Package experiments regenerates every figure of the paper as a measured
// table (the paper has no numeric tables; Figures 1-10 are its evaluation
// surface), plus the ablations that enforce an invariant nothing else does
// (A1-A3, A6, A8, A11, A12). Each Fig* function runs the corresponding
// system behaviour and returns its series as a table.
// cmd/benchharness prints them and TestAllExperimentsRun runs them in short
// mode. How fast the system is — per ask and per layer, with stated noise —
// is the repo benchmark's job (benchmark/, BENCHMARK.json), not a table's.
package experiments

import (
	"fmt"
	"strings"
	"time"
)

// Short reduces iteration counts, fan-out widths and simulated latencies so
// a smoke run (make bench-smoke, cmd/benchharness -short) finishes in
// seconds while still exercising every measured path.
var Short bool

// Metric is one measured value.
type Metric struct {
	Name  string `json:"name"`
	Value string `json:"value"`
}

// Row is one series point of an experiment.
type Row struct {
	Series  string   `json:"series"`
	Metrics []Metric `json:"metrics"`
}

// Table is one experiment's result. The JSON shape is what benchharness
// -json writes as BENCH_<ID>.json for CI artifacts.
type Table struct {
	ID    string   `json:"id"` // "F1".."F10", "A1".."A12" (A4, A5, A7, A9, A10 retired)
	Title string   `json:"title"`
	Rows  []Row    `json:"rows"`
	Notes []string `json:"notes,omitempty"`
}

// String renders the table as aligned text.
func (t *Table) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", t.ID, t.Title)
	width := 10
	for _, r := range t.Rows {
		if len(r.Series) > width {
			width = len(r.Series)
		}
	}
	for _, r := range t.Rows {
		fmt.Fprintf(&b, "  %-*s", width, r.Series)
		for _, m := range r.Metrics {
			fmt.Fprintf(&b, "  %s=%s", m.Name, m.Value)
		}
		b.WriteByte('\n')
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "  note: %s\n", n)
	}
	return b.String()
}

// Experiment is one table of the harness: its id and the function that
// measures it under a deterministic seed.
type Experiment struct {
	ID  string
	Run func(seed int64) (*Table, error)
}

// Experiments lists every experiment in id order: what All runs, what
// benchharness -fig selects from and what its usage names.
var Experiments = []Experiment{
	{"F1", Fig1EndToEnd},
	{"F2", Fig2Deployment},
	{"F3", Fig3AgentModel},
	{"F4", Fig4PetriTriggering},
	{"F5", Fig5DataRegistry},
	{"F6", Fig6TaskPlan},
	{"F7", Fig7DataPlan},
	{"F8", Fig8Conversation},
	{"F9", Fig9UIFlow},
	{"F10", Fig10ConversationFlow},
	{"A1", AblationBudget},
	{"A2", AblationOptimizer},
	{"A3", AblationStreams},
	{"A6", AblationMemo},
	{"A8", AblationDurability},
	{"A11", AblationResilience},
	{"A12", FlightRecorder},
}

// All runs every experiment (deterministic seed) and returns the tables in
// id order.
func All(seed int64) ([]*Table, error) {
	out := make([]*Table, 0, len(Experiments))
	for _, e := range Experiments {
		t, err := e.Run(seed)
		if err != nil {
			return out, fmt.Errorf("experiment %s: %w", e.ID, err)
		}
		out = append(out, t)
	}
	return out, nil
}

// ---- shared formatting helpers ----

func ms(d time.Duration) string {
	return fmt.Sprintf("%.2fms", float64(d)/float64(time.Millisecond))
}

func us(d time.Duration) string {
	return fmt.Sprintf("%.1fµs", float64(d)/float64(time.Microsecond))
}

func dollars(v float64) string { return fmt.Sprintf("$%.5f", v) }

func pct(v float64) string { return fmt.Sprintf("%.1f%%", v*100) }
