// Package experiments regenerates every figure of the paper as a table (the
// paper has no numeric tables; Figures 1-10 are its evaluation surface),
// plus the ablations A1-A3 (budget, optimizer, streams). Each Fig* function
// runs the corresponding system behaviour and returns its series as a
// table. TestAllExperimentsRun runs and checks them and logs each table, so
// `go test -v -run TestAllExperimentsRun ./internal/experiments` prints the
// paper's figures. How fast the system is — per ask and per layer, with
// stated noise — is the repo benchmark's job (benchmark/, BENCHMARK.json),
// not a table's.
package experiments

import (
	"fmt"
	"strings"
	"time"
)

// Metric is one measured value.
type Metric struct {
	Name  string
	Value string
}

// Row is one series point of an experiment.
type Row struct {
	Series  string
	Metrics []Metric
}

// Table is one experiment's result.
type Table struct {
	ID    string // "F1".."F10", "A1".."A3"
	Title string
	Rows  []Row
	Notes []string
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

// Experiments lists every experiment in id order.
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
