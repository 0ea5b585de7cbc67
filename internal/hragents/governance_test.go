package hragents

import (
	"strings"
	"testing"

	"blueprint/internal/agent"
)

// TestJobMatcherRespectsGovernance verifies the §VII privilege story end to
// end: restricting hr.jobs to another agent makes the JobMatcher's data
// planning fail with an unauthorized error, surfaced through the agent
// runtime's error report; re-granting restores service.
func TestJobMatcherRespectsGovernance(t *testing.T) {
	a := newApp(t, 1.0)
	if err := a.suite.DataReg.Grant("hr.jobs", "PAYROLL_ONLY"); err != nil {
		t.Fatal(err)
	}

	profile := map[string]any{"criteria": "data scientist position in SF bay area"}
	if err := agent.Execute(a.store, sess, JobMatcher,
		map[string]any{"JOBSEEKER_DATA": profile}, "", "gov1"); err != nil {
		t.Fatal(err)
	}
	d := agent.AwaitDone(a.store, sess, "gov1")
	if d == nil || d.Op != agent.OpAgentError {
		t.Fatalf("expected error report, got %+v", d)
	}
	if !strings.Contains(d.Error, "not authorized") {
		t.Fatalf("error = %q", d.Error)
	}

	// Grant the matcher and retry: service restored.
	if err := a.suite.DataReg.Grant("hr.jobs", JobMatcher); err != nil {
		t.Fatal(err)
	}
	if err := agent.Execute(a.store, sess, JobMatcher,
		map[string]any{"JOBSEEKER_DATA": profile}, "", "gov2"); err != nil {
		t.Fatal(err)
	}
	d = agent.AwaitDone(a.store, sess, "gov2")
	if d == nil || d.Op != agent.OpAgentDone {
		t.Fatalf("post-grant execution failed: %+v", d)
	}
	matches, _ := d.Outputs["MATCHES"].([]any)
	if len(matches) == 0 {
		t.Fatal("empty matches after grant")
	}
}
