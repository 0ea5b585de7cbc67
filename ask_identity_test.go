package blueprint

import (
	"context"
	"fmt"
	"regexp"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"blueprint/internal/hragents"
	"blueprint/internal/obs"
	"blueprint/internal/planner"
	"blueprint/internal/resilience"
)

// An ask's answer is the display message the ask caused, whatever else a
// session displays meanwhile: the late result of the plan an earlier ask ran,
// or the answer of an ask running beside it. These tests pin that with an
// oracle that re-derives every answer from the raw rows (as
// benchmark/oracle.go does), on sessions driven at zero think time.

// askShape is one kind of utterance the oracle can answer.
type askShape string

const (
	shapeSummarize askShape = "summarize"
	shapeRank      askShape = "rank"
	shapeCount     askShape = "count"
	shapeGroupBy   askShape = "groupby"
	shapeSearch    askShape = "search"
)

// oracleAsk is an utterance and what it means to the oracle.
type oracleAsk struct {
	Shape askShape
	Text  string
	Job   int    // summarize, rank
	City  string // count; search: the city the region names ("" = none)
	Title string // search
	Over  int    // groupby
}

type oracleJob struct {
	Title, City string
	Salary      int
}

type oracleApp struct {
	Profile, Status string
	Score           float64
}

// askOracle holds the raw rows the answers are derived from.
type askOracle struct {
	jobs      map[int]oracleJob
	apps      map[int][]oracleApp // by job id
	statuses  []string
	cities    []string
	titles    []string
	statusRe  *regexp.Regexp
	profileRe *regexp.Regexp
}

func loadAskOracle(t testing.TB, sys *System) *askOracle {
	t.Helper()
	o := &askOracle{jobs: map[int]oracleJob{}, apps: map[int][]oracleApp{}, profileRe: regexp.MustCompile(`p\d{4}`)}
	jobs, err := sys.Enterprise.DB.Query(`SELECT id, title, city, salary FROM jobs`)
	if err != nil {
		t.Fatal(err)
	}
	cities, titles := map[string]bool{}, map[string]bool{}
	for _, r := range jobs.Rows {
		j := oracleJob{Title: r[1].S, City: r[2].S, Salary: int(r[3].I)}
		o.jobs[int(r[0].I)] = j
		cities[j.City], titles[j.Title] = true, true
	}
	apps, err := sys.Enterprise.DB.Query(`SELECT job_id, profile_id, status, score FROM applications`)
	if err != nil {
		t.Fatal(err)
	}
	statuses := map[string]bool{}
	for _, r := range apps.Rows {
		a := oracleApp{Profile: r[1].S, Status: r[2].S, Score: r[3].F}
		o.apps[int(r[0].I)] = append(o.apps[int(r[0].I)], a)
		statuses[a.Status] = true
	}
	sorted := func(set map[string]bool) []string {
		out := make([]string, 0, len(set))
		for k := range set {
			out = append(out, k)
		}
		sort.Strings(out)
		return out
	}
	o.cities, o.titles, o.statuses = sorted(cities), sorted(titles), sorted(statuses)
	o.statusRe = regexp.MustCompile(strings.Join(o.statuses, "|"))
	return o
}

// pool is n utterances of each shape, shapes interleaved; no two planned
// asks name the same job, so that each runs cold once.
func (o *askOracle) pool(n int) []oracleAsk {
	var out []oracleAsk
	regions := []string{"SF bay area", "seattle area", "new york metro"}
	for i := 0; i < n; i++ {
		job := 1 + 2*i
		city := o.cities[(5*i)%len(o.cities)]
		title := o.titles[(3*i)%len(o.titles)]
		region := regions[i%len(regions)]
		anchor := ""
		for _, c := range o.cities {
			if strings.Contains(strings.ToLower(region), strings.ToLower(c)) && len(c) > len(anchor) {
				anchor = c
			}
		}
		over := 100000 + 1500*i
		out = append(out,
			oracleAsk{Shape: shapeSummarize, Job: job, Text: fmt.Sprintf("Summarize the applicants for job %d", job)},
			oracleAsk{Shape: shapeCount, City: city, Text: fmt.Sprintf("How many jobs are in %s?", city)},
			oracleAsk{Shape: shapeRank, Job: job + 1, Text: fmt.Sprintf("Rank the applicants for job %d", job+1)},
			oracleAsk{Shape: shapeGroupBy, Over: over, Text: fmt.Sprintf("average salary per city for salary over %d", over)},
			oracleAsk{Shape: shapeSearch, Title: title, City: anchor, Text: fmt.Sprintf("I am looking for a %s position in %s.", strings.ToLower(title), region)},
		)
	}
	return out
}

// check reports why answer is not the answer to q, or nil.
func (o *askOracle) check(q oracleAsk, answer string) error {
	want := func(sub string) error {
		if !strings.Contains(answer, sub) {
			return fmt.Errorf("%s %q: answer lacks %q: %.160q", q.Shape, q.Text, sub, answer)
		}
		return nil
	}
	switch q.Shape {
	case shapeCount:
		n := 0
		for _, j := range o.jobs {
			if j.City == q.City {
				n++
			}
		}
		if err := want("The query returned 1 rows."); err != nil {
			return err
		}
		return want(fmt.Sprintf("n: %d.", n))
	case shapeGroupBy:
		cities := map[string]bool{}
		for _, j := range o.jobs {
			if j.Salary > q.Over {
				cities[j.City] = true
			}
		}
		return want(fmt.Sprintf("The query returned %d rows.", len(cities)))
	case shapeSearch:
		n := 0
		for _, j := range o.jobs {
			if j.Title == q.Title && (q.City == "" || j.City == q.City) {
				n++
			}
		}
		if err := want(fmt.Sprintf("The query returned %d rows.", n)); err != nil || n == 0 {
			return err
		}
		return want("title: " + q.Title)
	case shapeSummarize:
		j := o.jobs[q.Job]
		if err := want(fmt.Sprintf("Job %d: %s in %s paying %d.", q.Job, j.Title, j.City, j.Salary)); err != nil {
			return err
		}
		counts := map[string]int{}
		for _, a := range o.apps[q.Job] {
			counts[a.Status]++
		}
		for _, st := range o.statuses {
			if n := counts[st]; n > 0 {
				if err := want(fmt.Sprintf("%s applicants: %d.", st, n)); err != nil {
					return err
				}
			} else if strings.Contains(answer, st+" applicants:") {
				return fmt.Errorf("summarize %q: answer counts %s applicants, the data has none: %.160q", q.Text, st, answer)
			}
		}
		return nil
	case shapeRank:
		// A cold rank displays the Ranker's text, a memoized one the
		// coordinator's RANKED rows as JSON: the same applicants in the same
		// order either way.
		top := append([]oracleApp(nil), o.apps[q.Job]...)
		sort.SliceStable(top, func(i, k int) bool { return top[i].Score > top[k].Score })
		if len(top) > 10 {
			top = top[:10]
		}
		if strings.HasPrefix(answer, "Top applicants") {
			if err := want(fmt.Sprintf("Top applicants for job %d:", q.Job)); err != nil {
				return err
			}
		}
		gotP, gotS := o.profileRe.FindAllString(answer, -1), o.statusRe.FindAllString(answer, -1)
		if len(gotP) != len(top) || len(gotS) != len(top) {
			return fmt.Errorf("rank %q: answer lists %d applicants, the data has %d: %.160q", q.Text, len(gotP), len(top), answer)
		}
		for i, a := range top {
			if gotP[i] != a.Profile || gotS[i] != a.Status {
				return fmt.Errorf("rank %q: position %d is %s/%s, want %s/%s", q.Text, i+1, gotP[i], gotS[i], a.Profile, a.Status)
			}
		}
		return nil
	}
	return fmt.Errorf("oracle: unknown shape %q", q.Shape)
}

// answeredAlone is the part of the pool the program answers right when each
// ask has its session to itself: asked one at a time, each planned ask's
// result awaited before the next, on a System of its own (so that the plans
// of the System under test are still cold). What it drops is the simulated
// model's own mislabels and the data registry's table choice — not an ask's
// identity, which is what the tests below look at.
func answeredAlone(t *testing.T, o *askOracle, pool []oracleAsk) []oracleAsk {
	t.Helper()
	sess, err := newSystem(t).StartSession("")
	if err != nil {
		t.Fatal(err)
	}
	var kept []oracleAsk
	planned := 0
	for _, q := range pool {
		answer, err := sess.Ask(q.Text, 10*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		if q.Shape == shapeSummarize || q.Shape == shapeRank {
			planned++
			awaitPlanResults(t, sess, planned)
		}
		if o.check(q, answer) == nil {
			kept = append(kept, q)
		}
	}
	shapes := map[askShape]bool{}
	for _, q := range kept {
		shapes[q.Shape] = true
	}
	if len(shapes) != 5 {
		t.Fatalf("asked alone, the program answers right only the shapes %v of the pool", shapes)
	}
	t.Logf("%d of the pool's %d utterances are answered right alone", len(kept), len(pool))
	return kept
}

// driveSessions runs, on each of n sessions of its own, a client that asks
// perClient asks of the pool back to back — planned and NLQ shapes
// interleaved, no wait for a plan's result — and returns every answer the
// oracle refuses.
func driveSessions(t *testing.T, sys *System, o *askOracle, pool []oracleAsk, n, perClient int,
	ask func(sess *Session, text string) (string, error)) []string {
	t.Helper()
	var (
		mu    sync.Mutex
		wrong []string
		wg    sync.WaitGroup
	)
	for c := 0; c < n; c++ {
		sess, err := sys.StartSession("")
		if err != nil {
			t.Fatal(err)
		}
		defer sess.Close()
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				q := pool[(c*7+i)%len(pool)]
				answer, err := ask(sess, q.Text)
				if err == nil {
					err = o.check(q, answer)
				}
				if err != nil {
					mu.Lock()
					wrong = append(wrong, err.Error())
					mu.Unlock()
				}
			}
		}(c)
	}
	wg.Wait()
	return wrong
}

// TestAskIdentity: on sessions driven at zero think time, with summarize,
// rank and the NLQ shapes interleaved, every answer is the asking
// utterance's own: a planned ask's result, which lands after the ask
// returned with its agent's message, is not the next ask's answer.
func TestAskIdentity(t *testing.T) {
	t.Run("ungoverned", func(t *testing.T) {
		sys := newSystem(t)
		o := loadAskOracle(t, sys)
		pool := answeredAlone(t, o, o.pool(30))
		wrong := driveSessions(t, sys, o, pool, 4, 75, func(sess *Session, text string) (string, error) {
			return sess.Ask(text, 10*time.Second)
		})
		if len(wrong) > 0 {
			t.Fatalf("%d of 300 answers were wrong; the first: %s", len(wrong), wrong[0])
		}
	})

	// Governed, an admitted ask's answer is memoized as the utterance's
	// answer, and a shed repeat is served that entry: a wrong answer would
	// be served again, degraded, until it expires.
	t.Run("governed", func(t *testing.T) {
		sys, err := New(Config{ModelAccuracy: 1.0, Governor: resilience.GovernorConfig{MaxConcurrent: 8}})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(sys.Close)
		o := loadAskOracle(t, sys)
		pool := answeredAlone(t, o, o.pool(30))
		wrong := driveSessions(t, sys, o, pool, 4, 75, func(sess *Session, text string) (string, error) {
			ans, err := sess.GovernedAsk(context.Background(), "pro", text, nil, 10*time.Second)
			return ans.Text, err
		})
		if len(wrong) > 0 {
			t.Fatalf("%d of 300 governed answers were wrong; the first: %s", len(wrong), wrong[0])
		}
		remembered := 0
		for _, q := range pool {
			key, _ := askKey(q.Text)
			if ent, _, ok := sys.Memo.GetStale(key); ok {
				remembered++
				if err := o.check(q, ent.Outputs["text"].(string)); err != nil {
					t.Fatalf("the answer remembered for degraded serves is wrong: %v", err)
				}
			}
		}
		if remembered < 75 {
			t.Fatalf("%d answers remembered for degraded serves, want one per utterance asked", remembered)
		}
	})
}

// TestOnePlanIDRunsConcurrently: runs of one plan id at once in one session
// are separate executions. Four at a time, each binding SQLEXECUTOR to a
// statement of its own, over 50 rounds: every run's final ROWS are its own
// statement's, and no stream is named for the plan.
func TestOnePlanIDRunsConcurrently(t *testing.T) {
	sys := newSystem(t)
	sess, err := sys.StartSession("")
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	const runs, rounds = 4, 50
	var wrong atomic.Int64
	var first sync.Once
	for r := 0; r < rounds; r++ {
		var wg sync.WaitGroup
		for i := 0; i < runs; i++ {
			job := int64(r*runs + i + 1) // one job id per run: 1..200
			wg.Add(1)
			go func() {
				defer wg.Done()
				p := &planner.Plan{ID: "dup", Steps: []planner.Step{{ID: "q", Agent: hragents.SQLExecutor,
					Bindings: map[string]planner.Binding{"SQL": {Value: fmt.Sprintf("SELECT id FROM jobs WHERE id = %d", job)}}}}}
				res, err := sys.Coordinator.ExecutePlan(sess.ID, p, nil)
				if err != nil {
					t.Error(err)
					return
				}
				rows, _ := res.Final["ROWS"].(*hragents.QueryRows)
				if rows == nil || len(rows.Rows) != 1 || rows.Rows[0][0].I != job {
					wrong.Add(1)
					first.Do(func() { t.Logf("the run of job %d got %+v", job, res.Final["ROWS"]) })
				}
			}()
		}
		wg.Wait()
	}
	if n := wrong.Load(); n > 0 {
		t.Errorf("%d of %d results were not their own run's rows", n, runs*rounds)
	}
	for _, info := range sys.Store.List(sess.ID) {
		if strings.Contains(info.ID, ":dup") {
			t.Errorf("stream %s is named for the plan", info.ID)
		}
	}
}

// exemplarOf returns the flight recorder's exemplar of the ask with id tid
// (obs.AskID's rendering), or nil.
func exemplarOf(tid string) *obs.Exemplar {
	for _, sum := range obs.SlowAsks.Summaries() {
		if sum.Trace == tid {
			if ex, ok := obs.SlowAsks.Get(sum.ID); ok {
				return ex
			}
		}
	}
	return nil
}

// captureEveryAsk makes every ask slow enough for the flight recorder for the
// rest of the test.
func captureEveryAsk(t *testing.T) {
	prev := obs.SlowAsks.Threshold()
	obs.SlowAsks.SetThreshold(1)
	t.Cleanup(func() { obs.SlowAsks.SetThreshold(prev) })
}

// tracedAsk asks text in-process (no tenant) and returns the answer and the
// ask's exemplar, found by the ask's id.
func tracedAsk(sess *Session, text string) (string, *obs.Exemplar, error) {
	ans, err := sess.GovernedAsk(context.Background(), "", text, nil, 10*time.Second)
	if err != nil {
		return "", nil, err
	}
	ex := exemplarOf(ans.TraceID)
	if ex == nil {
		return "", nil, fmt.Errorf("no exemplar of ask %s (%q)", ans.TraceID, text)
	}
	return ans.Text, ex, nil
}

func mustTracedAsk(t *testing.T, sess *Session, text string) *obs.Exemplar {
	t.Helper()
	_, ex, err := tracedAsk(sess, text)
	if err != nil {
		t.Fatal(err)
	}
	return ex
}

// agentsOf lists the agent spans of an exemplar's tree.
func agentsOf(ex *obs.Exemplar) map[string]bool {
	out := map[string]bool{}
	for _, sp := range ex.Spans {
		if sp.Component == "agent" {
			out[sp.Name] = true
		}
	}
	return out
}

// TestConcurrentAsksOneSession: nothing serializes the asks of one session —
// two HTTP clients can ask on it at once — and each still gets its own
// answer, with a span tree holding only the agents of its own path — none
// filed under whichever of the two roots happened to be open.
func TestConcurrentAsksOneSession(t *testing.T) {
	sys := newSystem(t)
	captureEveryAsk(t)
	o := loadAskOracle(t, sys)
	pool := answeredAlone(t, o, o.pool(20))
	var nlq, planned []oracleAsk
	for _, q := range pool {
		if q.Shape == shapeRank {
			planned = append(planned, q)
		} else if q.Shape == shapeCount || q.Shape == shapeGroupBy {
			nlq = append(nlq, q)
		}
	}
	sess, err := sys.StartSession("")
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	nlqAgents := map[string]bool{hragents.IntentClassifier: true, hragents.AgenticEmployer: true,
		hragents.NL2Q: true, hragents.SQLExecutor: true, hragents.QuerySummarizer: true}
	rankAgents := map[string]bool{hragents.IntentClassifier: true, hragents.AgenticEmployer: true, hragents.Ranker: true}

	var wg sync.WaitGroup
	errs := make(chan error, 1000)
	client := func(qs []oracleAsk, own map[string]bool) {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			q := qs[i%len(qs)]
			answer, ex, err := tracedAsk(sess, q.Text)
			if err == nil {
				err = o.check(q, answer)
			}
			if err != nil {
				errs <- err
				continue
			}
			for name := range agentsOf(ex) {
				if !own[name] {
					errs <- fmt.Errorf("%s %q: agent %s in its span tree", q.Shape, q.Text, name)
				}
			}
		}
	}
	wg.Add(2)
	go client(nlq, nlqAgents)
	go client(planned, rankAgents)
	wg.Wait()
	close(errs)
	var all []string
	for err := range errs {
		all = append(all, err.Error())
	}
	if len(all) > 0 {
		t.Fatalf("%d wrong answers or misfiled spans in 100 concurrent asks; the first: %s", len(all), all[0])
	}
}

// TestExemplarBreakdownIsTheAsks: a captured ask's cost breakdown is that of
// the plan the ask itself ran. An NLQ ask right after a summarize ran no plan
// and has none (not the summarize's, the last plan the session completed),
// and each of 200 planned asks, alternating jobs and shapes, names its own
// plan.
func TestExemplarBreakdownIsTheAsks(t *testing.T) {
	sys := newSystem(t)
	captureEveryAsk(t)
	sess, err := sys.StartSession("")
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()

	mustTracedAsk(t, sess, "Summarize the applicants for job 3")
	if ex := mustTracedAsk(t, sess, "How many jobs are in Austin?"); ex.Breakdown != nil {
		t.Fatalf("an NLQ ask's exemplar carries the breakdown of plan %s", ex.Breakdown.PlanID)
	}
	for i := 0; i < 200; i++ {
		job := 1 + i%5
		text, plan := fmt.Sprintf("Summarize the applicants for job %d", job), fmt.Sprintf("ae-summarize-%d", job)
		if i%2 == 1 {
			text, plan = fmt.Sprintf("Rank the applicants for job %d", job), fmt.Sprintf("ae-rank-%d", job)
		}
		ex := mustTracedAsk(t, sess, text)
		if ex.Breakdown == nil || ex.Breakdown.PlanID != plan {
			t.Fatalf("try %d: %q has breakdown %+v, want plan %s", i, text, ex.Breakdown, plan)
		}
	}
}

// TestExemplarTreeIsTheDrainedTree: the tree an exemplar captures is the
// whole tree of its ask — every span it will ever have, and none of another
// ask's — for every shape, a click included, with two clients asking on the
// session at once: the same as the tree read after Session.Close has drained
// everything the session ran.
func TestExemplarTreeIsTheDrainedTree(t *testing.T) {
	sys := newSystem(t)
	captureEveryAsk(t)
	o := loadAskOracle(t, sys)
	pool := o.pool(4)
	sess, err := sys.StartSession("")
	if err != nil {
		t.Fatal(err)
	}
	var (
		mu        sync.Mutex
		exemplars []*obs.Exemplar
		wg        sync.WaitGroup
	)
	errs := make(chan error, 2*len(pool)+2)
	for c := 0; c < 2; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := range pool {
				_, ex, err := tracedAsk(sess, pool[(i+c*len(pool)/2)%len(pool)].Text)
				if err != nil {
					errs <- err
					continue
				}
				mu.Lock()
				exemplars = append(exemplars, ex)
				mu.Unlock()
			}
			ans, err := sess.GovernedAsk(context.Background(), "", "", map[string]any{"action": "select_job", "job_id": 6 + c}, 10*time.Second)
			if err != nil {
				errs <- err
				return
			}
			mu.Lock()
			exemplars = append(exemplars, exemplarOf(ans.TraceID))
			mu.Unlock()
		}(c)
	}
	wg.Wait()
	sess.Close()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	for _, ex := range exemplars {
		if ex == nil {
			t.Fatal("a click was not captured")
		}
		var root uint64
		captured := map[uint64]bool{}
		for _, sp := range ex.Spans {
			captured[sp.ID] = true
			if sp.Parent == 0 {
				root = sp.ID
			}
		}
		drained := obs.Spans.Tree(sess.ID, root)
		if root == 0 || len(drained) != len(captured) {
			t.Fatalf("%q: the exemplar holds %d spans, the drained tree of root %d %d:\n%s\nvs\n%s",
				ex.Text, len(captured), root, len(drained), obs.RenderTree(ex.Spans), obs.RenderTree(drained))
		}
		for _, sp := range drained {
			if !captured[sp.ID] {
				t.Fatalf("%q: span %s/%s landed after the exemplar was taken", ex.Text, sp.Component, sp.Name)
			}
		}
	}
}
