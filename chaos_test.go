package blueprint

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"blueprint/internal/hragents"
	"blueprint/internal/obs"
	"blueprint/internal/resilience"
	"blueprint/internal/session"
)

// The chaos suite (make chaos, `go test -race -run Chaos ./...`) drives
// full asks through a System while the deterministic fault injector fires
// at the agent, relational and durability sites. The contract under test is
// graceful degradation: faults surface as clean errors or retried-away
// hiccups, never as panics, wedged goroutines or a system that stays broken
// after the faults stop.

// chaosSession builds a throwaway system + session for one chaos scenario.
func chaosSession(t *testing.T, cfg Config) (*System, *Session) {
	t.Helper()
	cfg.ModelAccuracy = 1.0
	if cfg.Seed == 0 {
		cfg.Seed = 42
	}
	sys, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sys.Close)
	sess, err := sys.StartSession("")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sess.Close)
	return sys, sess
}

// chaosAsks runs n asks under whatever injector is active and reports how
// many answered. Every ask must return — an answer or a clean error —
// within its timeout; a hang fails the test.
func chaosAsks(t *testing.T, sess *Session, n int, timeout time.Duration) (answered int) {
	t.Helper()
	utterances := []string{
		"How many jobs are in San Francisco?",
		"Summarize the applicants for job 3",
		"average salary per city for salary over 120000",
	}
	for i := 0; i < n; i++ {
		done := make(chan error, 1)
		go func(text string) {
			_, err := sess.Ask(text, timeout)
			done <- err
		}(utterances[i%len(utterances)])
		select {
		case err := <-done:
			if err == nil {
				answered++
			} else if !errors.Is(err, ErrNoResponse) && !strings.Contains(err.Error(), "inject") {
				t.Fatalf("ask %d failed uncleanly: %v", i, err)
			}
		case <-time.After(timeout + 5*time.Second):
			t.Fatalf("ask %d wedged past its %s timeout", i, timeout)
		}
	}
	return answered
}

// TestChaosAgentErrorsAbsorbed injects errors into one in five agent
// invocations. Scheduler-dispatched steps retry (and replan) around them;
// tag-triggered front-door agents cannot, so some asks fail — but always
// cleanly, and the system answers normally once the faults stop.
func TestChaosAgentErrorsAbsorbed(t *testing.T) {
	_, sess := chaosSession(t, Config{})
	inj := resilience.NewInjector(1, resilience.Rule{
		Site: resilience.SiteAgent, Kind: resilience.KindError, Probability: 0.2,
	})
	resilience.Activate(inj)
	defer resilience.Deactivate()

	answered := chaosAsks(t, sess, 8, 2*time.Second)
	if answered < 3 {
		t.Fatalf("answered %d of 8 asks under 20%% agent-error injection, want >= 3", answered)
	}
	if st := inj.Stats(); st.Errors == 0 {
		t.Fatal("injector never fired — the chaos run tested nothing")
	}

	resilience.Deactivate()
	if _, err := sess.Ask("How many jobs are in Seattle?", 10*time.Second); err != nil {
		t.Fatalf("system did not recover after faults stopped: %v", err)
	}
}

// TestChaosRelationalFaultsDegradeGracefully injects errors into one in
// five relational statements: SQL-backed steps fail, retry and replan;
// asks answer or fail cleanly; recovery is immediate after deactivation.
func TestChaosRelationalFaultsDegradeGracefully(t *testing.T) {
	_, sess := chaosSession(t, Config{})
	inj := resilience.NewInjector(2, resilience.Rule{
		Site: resilience.SiteRelational, Kind: resilience.KindError, Probability: 0.2,
	})
	resilience.Activate(inj)
	defer resilience.Deactivate()

	answered := chaosAsks(t, sess, 8, 2*time.Second)
	if answered < 3 {
		t.Fatalf("answered %d of 8 asks under 20%% relational-error injection, want >= 3", answered)
	}

	resilience.Deactivate()
	if _, err := sess.Ask("How many jobs are in San Francisco?", 10*time.Second); err != nil {
		t.Fatalf("system did not recover after faults stopped: %v", err)
	}
}

// TestChaosReplanNeverAnswersForAnotherAgent fails a plan step's agent on
// every attempt: the third to fifth agent invocations of each ask error,
// which for these asks are the RANKER or SUMMARIZER step and both its
// retries. The replan may hand the step only to an agent that takes its
// inputs and returns its outputs. The shipped agents have none, so the ask
// answers exactly as a fault-free system does or fails; it never answers
// with another agent's output (a summary for a ranking, or a summary of rows
// a JOB_ID never produced).
func TestChaosReplanNeverAnswersForAnotherAgent(t *testing.T) {
	asks := []string{"Rank the applicants for job 4", "Summarize the applicants for job 4"}
	_, clean := chaosSession(t, Config{DisableMemo: true})
	want := make([]string, len(asks))
	for i, text := range asks {
		var err error
		if want[i], err = clean.Ask(text, 10*time.Second); err != nil {
			t.Fatalf("fault-free %q: %v", text, err)
		}
	}

	_, sess := chaosSession(t, Config{DisableMemo: true})
	defer resilience.Deactivate()
	for i, text := range asks {
		inj := resilience.NewInjector(int64(6+i), resilience.Rule{
			Site: resilience.SiteAgent, Kind: resilience.KindError, After: 2, Limit: 3, Probability: 1,
		})
		resilience.Activate(inj)
		got, err := sess.Ask(text, time.Second)
		resilience.Deactivate()
		if st := inj.Stats(); st.Errors != 3 {
			t.Fatalf("%q: injector fired %d times, want 3", text, st.Errors)
		}
		if err == nil && got != want[i] {
			t.Fatalf("%q answered %q under a failing step, want the fault-free %q or an error", text, got, want[i])
		}
	}
}

// TestChaosFailedAskEndsAtItsFailure fails agent invocations under a 10 s
// ask timeout: an ask ends at its failure record, not at its deadline. A
// failed front door (the intent classifier, tag-activated, so never retried)
// and a failed plan step (RANKER on all three attempts, with no substitute)
// each end their ask within 100 ms, with session.ErrFailed naming the agent
// and carrying the injected cause, and the outcome failed.
func TestChaosFailedAskEndsAtItsFailure(t *testing.T) {
	cases := []struct {
		text  string
		rule  resilience.Rule
		agent string
	}{
		{"How many jobs are in San Francisco?", resilience.Rule{Limit: 1}, hragents.IntentClassifier},
		{"Rank the applicants for job 4", resilience.Rule{After: 2, Limit: 3}, hragents.Ranker},
	}
	_, sess := chaosSession(t, Config{DisableMemo: true})
	defer resilience.Deactivate()
	for i, c := range cases {
		c.rule.Site, c.rule.Kind, c.rule.Probability = resilience.SiteAgent, resilience.KindError, 1
		inj := resilience.NewInjector(int64(10+i), c.rule)
		resilience.Activate(inj)
		start := time.Now()
		ans, err := sess.GovernedAsk(context.Background(), "", c.text, nil, 10*time.Second)
		took := time.Since(start)
		resilience.Deactivate()
		if st := inj.Stats(); st.Errors != c.rule.Limit {
			t.Fatalf("%q: injector fired %d times, want %d", c.text, st.Errors, c.rule.Limit)
		}
		if !errors.Is(err, session.ErrFailed) || !strings.Contains(err.Error(), c.agent) || !strings.Contains(err.Error(), "inject") {
			t.Fatalf("%q: err = %v, want session.ErrFailed naming %s and the injected fault", c.text, err, c.agent)
		}
		if ans.Outcome != obs.OutcomeFailed {
			t.Fatalf("%q: outcome %q, want %q", c.text, ans.Outcome, obs.OutcomeFailed)
		}
		if took > 100*time.Millisecond {
			t.Fatalf("%q: failed after %s, want within 100 ms of its start", c.text, took)
		}
	}
}

// TestChaosTransientHangsFailCleanly injects bounded hangs (300ms, then
// the invocation fails) into the first three agent invocations. Those land
// on the tag-triggered front door, which has no retry path by design — the
// affected asks must fail cleanly, each when its hang fails (under 1 s), not
// at its 2 s timeout, and the first ask after the transient window must
// answer normally.
func TestChaosTransientHangsFailCleanly(t *testing.T) {
	_, sess := chaosSession(t, Config{})
	inj := resilience.NewInjector(3, resilience.Rule{
		Site: resilience.SiteAgent, Kind: resilience.KindHang,
		Probability: 1, Latency: 300 * time.Millisecond, Limit: 3,
	})
	resilience.Activate(inj)
	defer resilience.Deactivate()

	// Three asks burn the hang budget; each must return (chaosAsks enforces
	// a clean end) at its failure, well before its timeout, even though it
	// may not answer.
	for i := 0; i < 3; i++ {
		start := time.Now()
		chaosAsks(t, sess, 1, 2*time.Second)
		if took := time.Since(start); took >= time.Second {
			t.Fatalf("hang-window ask %d returned after %s, want under 1 s", i+1, took)
		}
	}
	if st := inj.Stats(); st.Hangs == 0 {
		t.Fatal("hang rule never fired — the chaos run tested nothing")
	}
	// The window has passed (limit 3): the next ask must answer.
	if answered := chaosAsks(t, sess, 2, 10*time.Second); answered < 1 {
		t.Fatal("no ask answered after the hang window passed")
	}
	if st := inj.Stats(); st.Hangs != 3 {
		t.Fatalf("hang rule fired %d times, want exactly its limit of 3", st.Hangs)
	}
}

// TestChaosDurabilityFaultsFailCleanly injects errors into WAL appends:
// writes may fail but must fail cleanly, and once the faults stop the
// system keeps serving and a restart recovers the surviving state.
func TestChaosDurabilityFaultsFailCleanly(t *testing.T) {
	dir := t.TempDir()
	sys, sess := chaosSession(t, Config{DataDir: dir})
	if _, err := sess.Ask("How many jobs are in San Francisco?", 10*time.Second); err != nil {
		t.Fatalf("baseline ask: %v", err)
	}

	inj := resilience.NewInjector(4, resilience.Rule{
		Site: resilience.SiteDurability, Kind: resilience.KindError, Probability: 0.5, Limit: 10,
	})
	resilience.Activate(inj)
	defer resilience.Deactivate()
	// Durable writes under injection: errors are acceptable, panics and
	// wedges are not.
	for i := 0; i < 6; i++ {
		_, _ = sys.Enterprise.DB.Exec("UPDATE jobs SET salary = 123450 WHERE id = 1")
	}
	chaosAsks(t, sess, 3, 2*time.Second)
	resilience.Deactivate()

	if _, err := sess.Ask("How many jobs are in Oakland?", 10*time.Second); err != nil {
		t.Fatalf("system did not recover after durability faults stopped: %v", err)
	}
	sess.Close()
	sys.Close()

	// Restart over the same directory: recovery must succeed (a torn or
	// short log is repaired, not fatal).
	re, err := New(Config{Seed: 42, ModelAccuracy: 1.0, DataDir: dir})
	if err != nil {
		t.Fatalf("restart after durability chaos: %v", err)
	}
	defer re.Close()
	s2, err := re.StartSession("")
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if _, err := s2.Ask("How many jobs are in San Francisco?", 10*time.Second); err != nil {
		t.Fatalf("ask after recovery: %v", err)
	}
}

// TestChaosCrashHookDrivesWarmRestart wires the injector's crash hook to a
// signal, trips it on a durable write, then performs the crash the paper's
// "restart on failure" story expects: SimulateCrash (no final snapshot) and
// a reopen that replays the WAL.
func TestChaosCrashHookDrivesWarmRestart(t *testing.T) {
	dir := t.TempDir()
	sys, sess := chaosSession(t, Config{DataDir: dir})
	if _, err := sess.Ask("Summarize the applicants for job 3", 10*time.Second); err != nil {
		t.Fatalf("baseline ask: %v", err)
	}

	// Unlimited crash rule: background bookkeeping appends may hit the site
	// first, so a one-shot rule could be spent before the UPDATE below
	// reaches the WAL. The hook is once-guarded for the same reason.
	crashed := make(chan struct{})
	var once sync.Once
	inj := resilience.NewInjector(5, resilience.Rule{
		Site: resilience.SiteDurability, Kind: resilience.KindCrash, Probability: 1,
	})
	inj.OnCrash(func() { once.Do(func() { close(crashed) }) })
	resilience.Activate(inj)
	defer resilience.Deactivate()

	// A durable write hits the WAL append site and trips the crash.
	if _, err := sys.Enterprise.DB.Exec("UPDATE jobs SET salary = 200000 WHERE id = 2"); err == nil {
		t.Fatal("write during an injected durability crash reported success")
	}
	select {
	case <-crashed:
	case <-time.After(5 * time.Second):
		t.Fatal("crash hook never fired")
	}
	resilience.Deactivate()
	sess.Close()
	sys.SimulateCrash()

	// Reopen: WAL replay (no final snapshot was taken) must come back warm
	// enough to answer immediately.
	re, err := New(Config{Seed: 42, ModelAccuracy: 1.0, DataDir: dir})
	if err != nil {
		t.Fatalf("reopen after crash: %v", err)
	}
	defer re.Close()
	if re.DurabilityStats().Recovery.ReplayedRecords == 0 && !re.DurabilityStats().Recovery.SnapshotRestored {
		t.Fatal("recovery neither replayed the log nor restored a snapshot")
	}
	s2, err := re.StartSession("")
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if _, err := s2.Ask("Summarize the applicants for job 3", 10*time.Second); err != nil {
		t.Fatalf("ask after crash recovery: %v", err)
	}
}
