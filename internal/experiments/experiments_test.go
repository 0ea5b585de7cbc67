package experiments

import (
	"strings"
	"testing"
	"time"
)

// TestAllExperimentsRun regenerates every figure and checks structural
// invariants of the results; it logs each table, so with -v it prints the
// paper's figures. Every check is a count or a state, never a wall-clock
// ratio: tier-1 must not depend on how loaded the host is.
func TestAllExperimentsRun(t *testing.T) {
	if testing.Short() {
		t.Skip("experiments are integration-scale; skipped with -short")
	}
	byID := map[string]*Table{}
	for _, e := range Experiments {
		tb, err := e.Run(42)
		if err != nil {
			t.Fatalf("experiment %s: %v", e.ID, err)
		}
		t.Log(tb)
		if len(tb.Rows) == 0 {
			t.Errorf("%s has no rows", tb.ID)
		}
		if tb.String() == "" {
			t.Errorf("%s renders empty", tb.ID)
		}
		byID[tb.ID] = tb
	}

	// F9/F10: the paper's exact flows must verify.
	for _, id := range []string{"F9", "F10"} {
		verified := false
		for _, r := range byID[id].Rows {
			for _, m := range r.Metrics {
				if m.Name == "sequence_verified" && m.Value == "true" {
					verified = true
				}
			}
		}
		if !verified {
			t.Errorf("%s flow sequence not verified:\n%s", id, byID[id])
		}
	}

	// F7: the direct strategy must lose to decomposition on recall.
	var directRecall, decomposedRecall string
	for _, r := range byID["F7"].Rows {
		for _, m := range r.Metrics {
			if m.Name == "recall" {
				if r.Series == "direct" {
					directRecall = m.Value
				}
				if r.Series == "decomposed acc=1.0" {
					decomposedRecall = m.Value
				}
			}
		}
	}
	if decomposedRecall != "100.0%" {
		t.Errorf("decomposed recall = %s, want 100.0%%", decomposedRecall)
	}
	if directRecall == "100.0%" || directRecall == "" {
		t.Errorf("direct recall = %s, want < 100%%", directRecall)
	}

	// A1: generous budget completes; tight budget aborts.
	outcomes := map[string]string{}
	for _, r := range byID["A1"].Rows {
		for _, m := range r.Metrics {
			if m.Name == "outcome" {
				outcomes[r.Series] = m.Value
			}
		}
	}
	if outcomes["budget=$1.00000"] != "completed" {
		t.Errorf("generous budget outcome = %s", outcomes["budget=$1.00000"])
	}
	if outcomes["budget=$0.00010"] != "aborted" {
		t.Errorf("tight budget outcome = %s", outcomes["budget=$0.00010"])
	}

	// A2: objective-driven crossover.
	chosen := map[string]string{}
	for _, r := range byID["A2"].Rows {
		for _, m := range r.Metrics {
			if m.Name == "chosen" {
				chosen[r.Series] = m.Value
			}
		}
	}
	if chosen["tier cheapest"] != "small" || chosen["tier accuracy-first"] != "large" {
		t.Errorf("tier choices = %v", chosen)
	}
	if chosen["plan cheapest"] != "direct" || chosen["plan accuracy-first"] != "decomposed" {
		t.Errorf("plan choices = %v", chosen)
	}
}

func TestTableRendering(t *testing.T) {
	tb := &Table{
		ID: "X", Title: "demo",
		Rows:  []Row{{Series: "a", Metrics: []Metric{{"m", "1"}}}},
		Notes: []string{"a note"},
	}
	out := tb.String()
	for _, want := range []string{"== X: demo ==", "m=1", "note: a note"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
}

func TestFormatHelpers(t *testing.T) {
	if ms(1500*time.Microsecond) != "1.50ms" {
		t.Fatal(ms(1500 * time.Microsecond))
	}
	if us(1500*time.Nanosecond) != "1.5µs" {
		t.Fatal(us(1500 * time.Nanosecond))
	}
	if dollars(0.5) != "$0.50000" {
		t.Fatal(dollars(0.5))
	}
	if pct(0.876) != "87.6%" {
		t.Fatal(pct(0.876))
	}
}
