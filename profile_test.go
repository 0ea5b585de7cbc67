package blueprint

import (
	"strings"
	"testing"
	"time"

	"blueprint/internal/dataplan"
	"blueprint/internal/obs"
	"blueprint/internal/streams"
)

const atlantisJob = `INSERT INTO jobs VALUES (9001, 'Harbour Master', 'Atlantis', 1, 100000, FALSE)`

// askNL2Q asks and returns the answer, the SQL the NL2Q agent emitted for it
// and the profile attribute of its planner/nl2q span.
func askNL2Q(t *testing.T, sess *Session, text string) (answer, sql, profile string) {
	t.Helper()
	t0 := time.Now()
	steps := len(sess.Flow())
	answer, err := sess.Ask(text, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	for _, st := range sess.Flow()[steps:] {
		if st.Sender == "NL2Q" && st.Kind == streams.Data {
			sql = st.Payload
		}
	}
	for _, sp := range obs.Spans.Session(sess.ID) {
		if sp.Component == "planner" && sp.Name == "nl2q" && !sp.Start.Before(t0) {
			profile = spanAttr(sp, "profile")
		}
	}
	return answer, sql, profile
}

// A value that enters the table through plain SQL grounds the very next ask:
// the profile's validity comes from the table's own data version, not from
// the OnWrite -> Touch -> memo wiring, so it holds with the memo off too.
func TestAskGroundsValueInsertedJustBefore(t *testing.T) {
	for name, cfg := range map[string]Config{
		"memo":    {ModelAccuracy: 1.0},
		"no-memo": {ModelAccuracy: 1.0, DisableMemo: true},
	} {
		t.Run(name, func(t *testing.T) {
			sys, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer sys.Close()
			sess, err := sys.StartSession("")
			if err != nil {
				t.Fatal(err)
			}
			defer sess.Close()
			const q = "How many jobs are in Atlantis?"

			answer, sql, profile := askNL2Q(t, sess, q)
			if strings.Contains(sql, "Atlantis") || !strings.Contains(answer, "n: 200.") {
				t.Fatalf("before the insert: sql %q, answer %q; want nothing grounded, all 200 jobs", sql, answer)
			}
			if profile != "built" {
				t.Fatalf("first NL2Q turn: profile=%q, want built", profile)
			}
			if _, err := sys.Enterprise.DB.Exec(atlantisJob); err != nil {
				t.Fatal(err)
			}
			answer, sql, profile = askNL2Q(t, sess, q)
			if !strings.Contains(sql, "city = 'Atlantis'") || !strings.Contains(answer, "n: 1.") {
				t.Fatalf("after the insert: sql %q, answer %q; want city = 'Atlantis' and 1", sql, answer)
			}
			if profile != "built" {
				t.Fatalf("turn after a write: profile=%q, want built", profile)
			}
			if _, _, profile = askNL2Q(t, sess, q); profile != "hit" {
				t.Fatalf("turn after no write: profile=%q, want hit", profile)
			}
		})
	}
}

// After a crash the log replays through the same mutation sites, on tables
// that start with no profile: the first ask sees the recovered rows.
func TestProfileReflectsRecoveredRows(t *testing.T) {
	dir := t.TempDir()
	sys := newDurableSystem(t, dir)
	if _, err := dataplan.BuildTarget(sys.Enterprise.DB, "jobs"); err != nil { // a profile from before the write
		t.Fatal(err)
	}
	if _, err := sys.Enterprise.DB.Exec(atlantisJob); err != nil {
		t.Fatal(err)
	}
	sys.SimulateCrash()

	sys2 := newDurableSystem(t, dir)
	defer sys2.Close()
	if st := sys2.DurabilityStats(); st.Recovery.SnapshotRestored || st.Recovery.ReplayedRecords == 0 {
		t.Fatalf("recovery = %+v, want a log replay", st.Recovery)
	}
	sess, err := sys2.StartSession("")
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	answer, sql, _ := askNL2Q(t, sess, "How many jobs are in Atlantis?")
	if !strings.Contains(sql, "city = 'Atlantis'") || !strings.Contains(answer, "n: 1.") {
		t.Fatalf("after recovery: sql %q, answer %q; want city = 'Atlantis' and 1", sql, answer)
	}
}
