package registry

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"blueprint/internal/docstore"
	"blueprint/internal/graphstore"
	"blueprint/internal/relational"
)

func sampleAgents() []AgentSpec {
	return []AgentSpec{
		{
			Name:        "PROFILER",
			Description: "presents a user profile UI form to collect information from the job seeker",
			Inputs:      []ParamSpec{{Name: "CRITERIA", Type: "text", Description: "search criteria from the user"}},
			Outputs:     []ParamSpec{{Name: "JOBSEEKER_DATA", Type: "profile", Description: "collected job seeker profile"}},
			QoS:         QoSProfile{CostPerCall: 0.001, Latency: 50 * time.Millisecond, Accuracy: 0.95},
		},
		{
			Name:        "JOBMATCHER",
			Description: "assess the match quality between a job seeker profile and specific jobs, ranking matches",
			Inputs: []ParamSpec{
				{Name: "JOBSEEKER_DATA", Type: "profile"},
				{Name: "JOBS", Type: "rows"},
				{Name: "CRITERIA", Type: "text", Optional: true},
			},
			Outputs: []ParamSpec{{Name: "MATCHES", Type: "rows", Description: "ranked job matches"}},
			QoS:     QoSProfile{CostPerCall: 0.01, Latency: 120 * time.Millisecond, Accuracy: 0.9},
		},
		{
			Name:        "PRESENTER",
			Description: "present matched jobs and results to the end user in the conversation",
			Inputs:      []ParamSpec{{Name: "MATCHES", Type: "rows"}},
			Outputs:     []ParamSpec{{Name: "RENDERED", Type: "text"}},
		},
		{
			Name:        "MODERATOR",
			Description: "content moderation guardrail filtering offensive or unsafe generated text",
			Inputs:      []ParamSpec{{Name: "TEXT", Type: "text"}},
			Outputs:     []ParamSpec{{Name: "VERDICT", Type: "text"}},
		},
	}
}

func newAgentReg(t testing.TB) *AgentRegistry {
	t.Helper()
	r := NewAgentRegistry()
	for _, s := range sampleAgents() {
		if err := r.Register(s); err != nil {
			t.Fatal(err)
		}
	}
	return r
}

func TestAgentRegisterGet(t *testing.T) {
	r := newAgentReg(t)
	s, err := r.Get("jobmatcher") // case-insensitive
	if err != nil {
		t.Fatal(err)
	}
	if s.Name != "JOBMATCHER" || s.Version != 1 {
		t.Fatalf("spec = %+v", s)
	}
	if r.Len() != 4 {
		t.Fatalf("len = %d", r.Len())
	}
	if err := r.Register(AgentSpec{Name: "PROFILER"}); !errors.Is(err, ErrAgentExists) {
		t.Fatalf("err = %v", err)
	}
	if err := r.Register(AgentSpec{}); err == nil {
		t.Fatal("empty name accepted")
	}
	if _, err := r.Get("missing"); !errors.Is(err, ErrAgentNotFound) {
		t.Fatalf("err = %v", err)
	}
}

// A lookup folds the name's case without allocating when it is ASCII, and
// still finds a non-ASCII name in any case.
func TestAgentGetFoldsCaseWithoutAllocating(t *testing.T) {
	r := newAgentReg(t)
	if err := r.Register(AgentSpec{Name: "SUMMARIZER", Description: "summarize a job's applicants"}); err != nil {
		t.Fatal(err)
	}
	if err := r.Register(AgentSpec{Name: "Rédacteur", Description: "write a cover letter"}); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(200, func() {
		if _, err := r.Get("SUMMARIZER"); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("Get(%q) allocates %v times, want 0", "SUMMARIZER", n)
	}
	for name, want := range map[string]string{"Summarizer": "SUMMARIZER", "summarizer": "SUMMARIZER", "RÉDACTEUR": "Rédacteur", "rédacteur": "Rédacteur"} {
		if s, err := r.Get(name); err != nil || s.Name != want {
			t.Fatalf("Get(%q) = %q, %v; want %q", name, s.Name, err, want)
		}
	}
	if _, err := r.Get("SUMMARIZERS"); !errors.Is(err, ErrAgentNotFound) {
		t.Fatalf("err = %v", err)
	}
}

func TestAgentUpdateBumpsVersion(t *testing.T) {
	r := newAgentReg(t)
	s, _ := r.Get("PROFILER")
	s.Description = "updated description"
	if err := r.Update(s); err != nil {
		t.Fatal(err)
	}
	s2, _ := r.Get("PROFILER")
	if s2.Version != 2 || s2.Description != "updated description" {
		t.Fatalf("updated = %+v", s2)
	}
	if err := r.Update(AgentSpec{Name: "missing"}); !errors.Is(err, ErrAgentNotFound) {
		t.Fatalf("err = %v", err)
	}
}

func TestAgentDerive(t *testing.T) {
	r := newAgentReg(t)
	d, err := r.Derive("JOBMATCHER", "JOBMATCHER_MED", "match quality for medical sector jobs", func(s *AgentSpec) {
		s.QoS.CostPerCall = 0.02
	})
	if err != nil {
		t.Fatal(err)
	}
	if d.Name != "JOBMATCHER_MED" || d.QoS.CostPerCall != 0.02 || len(d.Inputs) != 3 {
		t.Fatalf("derived = %+v", d)
	}
	if r.Len() != 5 {
		t.Fatalf("len = %d", r.Len())
	}
	if _, err := r.Derive("missing", "X", "", nil); !errors.Is(err, ErrAgentNotFound) {
		t.Fatalf("err = %v", err)
	}
	if _, err := r.Derive("JOBMATCHER", "PROFILER", "", nil); !errors.Is(err, ErrAgentExists) {
		t.Fatalf("err = %v", err)
	}
}

func TestAgentDeregister(t *testing.T) {
	r := newAgentReg(t)
	if err := r.Deregister("MODERATOR"); err != nil {
		t.Fatal(err)
	}
	if r.Len() != 3 {
		t.Fatalf("len = %d", r.Len())
	}
	if err := r.Deregister("MODERATOR"); !errors.Is(err, ErrAgentNotFound) {
		t.Fatalf("err = %v", err)
	}
	for _, h := range r.SearchVector("content moderation guardrail", 10) {
		if h.Spec.Name == "MODERATOR" {
			t.Fatal("deregistered agent still searchable")
		}
	}
}

func TestAgentKeywordSearch(t *testing.T) {
	r := newAgentReg(t)
	hits := r.SearchKeyword("match quality", 5)
	if len(hits) == 0 || hits[0].Spec.Name != "JOBMATCHER" {
		t.Fatalf("keyword hits = %+v", hits)
	}
	if got := r.SearchKeyword("nonexistent_token_xyz", 5); len(got) != 0 {
		t.Fatalf("unexpected hits = %+v", got)
	}
	if got := r.SearchKeyword("", 5); len(got) != 0 {
		t.Fatalf("empty query hits = %+v", got)
	}
}

func TestAgentVectorSearch(t *testing.T) {
	r := newAgentReg(t)
	hits := r.SearchVector("rank how well a candidate profile matches job postings", 2)
	if len(hits) != 2 {
		t.Fatalf("hits = %+v", hits)
	}
	if hits[0].Spec.Name != "JOBMATCHER" {
		t.Fatalf("top hit = %s", hits[0].Spec.Name)
	}
}

func TestAgentUsageBoostsEmbedding(t *testing.T) {
	r := NewAgentRegistry()
	// Two agents with deliberately vague metadata.
	if err := r.Register(AgentSpec{Name: "A1", Description: "generic processing component alpha"}); err != nil {
		t.Fatal(err)
	}
	if err := r.Register(AgentSpec{Name: "A2", Description: "generic processing component beta"}); err != nil {
		t.Fatal(err)
	}
	// Route salary-related tasks to A2 repeatedly.
	for i := 0; i < 10; i++ {
		if err := r.RecordUsage("A2", "compute average salary statistics for engineering jobs"); err != nil {
			t.Fatal(err)
		}
	}
	if r.UsageCount("A2") != 10 {
		t.Fatalf("usage count = %d", r.UsageCount("A2"))
	}
	hits := r.SearchVector("average salary statistics", 2)
	if len(hits) == 0 || hits[0].Spec.Name != "A2" {
		t.Fatalf("usage-boosted search = %+v", hits)
	}
	if err := r.RecordUsage("missing", "x"); !errors.Is(err, ErrAgentNotFound) {
		t.Fatalf("err = %v", err)
	}
}

func TestFindForTaskFallback(t *testing.T) {
	r := newAgentReg(t)
	hits := r.FindForTask("present results to the user", 3)
	if len(hits) == 0 {
		t.Fatal("no hits")
	}
	// Empty registry returns nothing.
	empty := NewAgentRegistry()
	if got := empty.FindForTask("anything", 3); len(got) != 0 {
		t.Fatalf("empty registry hits = %+v", got)
	}
}

func newDataReg(t testing.TB) (*DataRegistry, *relational.DB) {
	t.Helper()
	r := NewDataRegistry()
	db := relational.NewDB()
	for _, stmt := range []string{
		`CREATE TABLE jobs (id INT, title TEXT, city TEXT, salary INT)`,
		`CREATE INDEX idx_city ON jobs (city)`,
		`INSERT INTO jobs VALUES (1, 'Data Scientist', 'San Francisco', 180000)`,
		`CREATE TABLE applications (id INT, job_id INT, profile_id TEXT, status TEXT)`,
	} {
		if _, err := db.Exec(stmt); err != nil {
			t.Fatal(err)
		}
	}
	if err := r.ImportRelational("hr", "HR relational database with job postings and applications", "hr-conn", db); err != nil {
		t.Fatal(err)
	}
	return r, db
}

func TestImportRelational(t *testing.T) {
	r, _ := newDataReg(t)
	if r.Len() != 3 { // hr + 2 tables
		t.Fatalf("len = %d", r.Len())
	}
	a, err := r.Get("hr.jobs")
	if err != nil {
		t.Fatal(err)
	}
	if a.Level != LevelTable || a.Parent != "hr" || a.Rows != 1 {
		t.Fatalf("asset = %+v", a)
	}
	if len(a.Columns) != 4 || a.Columns[1].Name != "title" {
		t.Fatalf("columns = %+v", a.Columns)
	}
	if len(a.Indexes) != 1 {
		t.Fatalf("indexes = %+v", a.Indexes)
	}
	kids := r.Children("hr")
	if len(kids) != 2 || kids[0].Name != "hr.applications" {
		t.Fatalf("children = %+v", kids)
	}
}

func TestImportDocstoreAndGraphAndLLM(t *testing.T) {
	r, _ := newDataReg(t)
	ds := docstore.NewStore()
	ds.EnsureCollection("profiles")
	if err := ds.Insert("profiles", "p1", docstore.Doc{"name": "Ada", "skills": []any{"go"}}); err != nil {
		t.Fatal(err)
	}
	if err := ds.CreateIndex("profiles", "name"); err != nil {
		t.Fatal(err)
	}
	if err := r.ImportDocstore("docs", "document store with job seeker profiles and resumes", "doc-conn", ds); err != nil {
		t.Fatal(err)
	}
	g := graphstore.NewGraph()
	if err := g.AddNode("ds", "title", map[string]any{"name": "Data Scientist"}); err != nil {
		t.Fatal(err)
	}
	if err := r.ImportGraph("taxonomy", "job title taxonomy graph with related roles", "graph-conn", g); err != nil {
		t.Fatal(err)
	}
	if err := r.RegisterLLMSource("gpt-sim", "general knowledge language model usable as a data source for cities and titles", QoSProfile{CostPerCall: 0.01, Latency: 100 * time.Millisecond, Accuracy: 0.9}); err != nil {
		t.Fatal(err)
	}
	if got := len(r.List("", "")); got != 7 {
		t.Fatalf("assets = %d", got)
	}
	if got := len(r.List(LevelCollection, "")); got != 1 {
		t.Fatalf("collections = %d", got)
	}
	if got := len(r.List("", KindLLM)); got != 1 {
		t.Fatalf("llm sources = %d", got)
	}
	coll, _ := r.Get("docs.profiles")
	if coll.Rows != 1 || len(coll.Indexes) != 1 {
		t.Fatalf("collection = %+v", coll)
	}
}

func TestDataDiscovery(t *testing.T) {
	r, _ := newDataReg(t)
	if err := r.RegisterLLMSource("gpt-sim", "general world knowledge: cities in regions, related job titles", QoSProfile{}); err != nil {
		t.Fatal(err)
	}
	hits := r.Discover("table with job postings titles and salaries", 3)
	if len(hits) == 0 {
		t.Fatal("no discovery hits")
	}
	found := false
	for _, h := range hits {
		if h.Asset.Name == "hr.jobs" {
			found = true
		}
	}
	if !found {
		t.Fatalf("hr.jobs not discovered: %+v", hits)
	}
	hits = r.Discover("cities located in a geographic region general knowledge", 2)
	found = false
	for _, h := range hits {
		if h.Asset.Kind == KindLLM {
			found = true
		}
	}
	if !found {
		t.Fatalf("llm source not discovered: %+v", hits)
	}
}

func TestDataKeywordSearch(t *testing.T) {
	r, _ := newDataReg(t)
	hits := r.searchKeyword("applications status", 5)
	if len(hits) != 1 || hits[0].Asset.Name != "hr.applications" {
		t.Fatalf("keyword = %+v", hits)
	}
	if got := r.searchKeyword("", 5); got != nil {
		t.Fatalf("empty query = %+v", got)
	}
}

func TestDataRegistryErrors(t *testing.T) {
	r := NewDataRegistry()
	if err := r.Register(DataAsset{}); err == nil {
		t.Fatal("empty name accepted")
	}
	if err := r.Register(DataAsset{Name: "a", Kind: KindKV, Level: LevelDatabase}); err != nil {
		t.Fatal(err)
	}
	if err := r.Register(DataAsset{Name: "A"}); !errors.Is(err, ErrAssetExists) {
		t.Fatalf("err = %v", err)
	}
	if _, err := r.Get("missing"); !errors.Is(err, ErrAssetNotFound) {
		t.Fatalf("err = %v", err)
	}
	if err := r.Update(DataAsset{Name: "missing"}); !errors.Is(err, ErrAssetNotFound) {
		t.Fatalf("err = %v", err)
	}
}

func TestDataUpdate(t *testing.T) {
	r, _ := newDataReg(t)
	a, _ := r.Get("hr.jobs")
	a.Rows = 5000
	if err := r.Update(a); err != nil {
		t.Fatal(err)
	}
	a2, _ := r.Get("hr.jobs")
	if a2.Rows != 5000 {
		t.Fatalf("rows = %d", a2.Rows)
	}
}

func TestRegistryScales(t *testing.T) {
	r := NewDataRegistry()
	for i := 0; i < 500; i++ {
		if err := r.Register(DataAsset{
			Name:        fmt.Sprintf("src%03d.table%d", i, i),
			Kind:        KindRelational,
			Level:       LevelTable,
			Description: fmt.Sprintf("table about domain %d topic %d", i%13, i%7),
		}); err != nil {
			t.Fatal(err)
		}
	}
	hits := r.Discover("domain 5 topic 3", 10)
	if len(hits) != 10 {
		t.Fatalf("hits = %d", len(hits))
	}
}

func TestAgentUpdateIdenticalSpecKeepsVersion(t *testing.T) {
	r := newAgentReg(t)
	s, _ := r.Get("PROFILER")
	var notified []string
	r.OnChange(func(name string) { notified = append(notified, name) })

	// Re-registering a deep-equal spec must not bump the version (memo keys
	// and derived-agent chains would be invalidated spuriously), even when
	// the caller passes a zero Version.
	same := s
	same.Version = 0
	if err := r.Update(same); err != nil {
		t.Fatal(err)
	}
	if s2, _ := r.Get("PROFILER"); s2.Version != s.Version {
		t.Fatalf("identical update bumped version %d -> %d", s.Version, s2.Version)
	}
	if len(notified) != 0 {
		t.Fatalf("identical update fired change hooks: %v", notified)
	}

	// A real change bumps and notifies.
	changed := s
	changed.Description = "different"
	if err := r.Update(changed); err != nil {
		t.Fatal(err)
	}
	if s2, _ := r.Get("PROFILER"); s2.Version != s.Version+1 {
		t.Fatalf("changed update version = %d", s2.Version)
	}
	if len(notified) != 1 || notified[0] != "PROFILER" {
		t.Fatalf("notified = %v", notified)
	}
}

func TestAgentChangeHooksOnDeriveAndDeregister(t *testing.T) {
	r := newAgentReg(t)
	var notified []string
	r.OnChange(func(name string) { notified = append(notified, name) })
	if _, err := r.Derive("PROFILER", "PROFILER_V2", "derived", nil); err != nil {
		t.Fatal(err)
	}
	if err := r.Deregister("PROFILER_V2"); err != nil {
		t.Fatal(err)
	}
	if len(notified) != 2 || notified[0] != "PROFILER_V2" || notified[1] != "PROFILER_V2" {
		t.Fatalf("notified = %v", notified)
	}
}

func TestDataAssetVersioningAndTouch(t *testing.T) {
	r, _ := newDataReg(t)
	a, _ := r.Get("hr.jobs")
	if a.Version != 1 {
		t.Fatalf("initial version = %d", a.Version)
	}
	var notified []string
	r.OnChange(func(name string) { notified = append(notified, name) })

	a.Rows = 9999
	if err := r.Update(a); err != nil {
		t.Fatal(err)
	}
	if a2, _ := r.Get("hr.jobs"); a2.Version != 2 {
		t.Fatalf("post-update version = %d", a2.Version)
	}
	if err := r.Touch("hr.jobs"); err != nil {
		t.Fatal(err)
	}
	if a3, _ := r.Get("hr.jobs"); a3.Version != 3 {
		t.Fatalf("post-touch version = %d", a3.Version)
	}
	// Both the Update and the Touch propagate up the hierarchy: agents
	// declare Reads at database level ("hr"), so a table-level change must
	// notify the parent as well as the table.
	counts := map[string]int{}
	for _, n := range notified {
		counts[n]++
	}
	if counts["hr.jobs"] != 2 || counts["hr"] != 2 {
		t.Fatalf("notified = %v", notified)
	}
	if err := r.Touch("missing"); !errors.Is(err, ErrAssetNotFound) {
		t.Fatalf("touch missing = %v", err)
	}
}

func TestDataTouchPropagatesToDescendants(t *testing.T) {
	r, _ := newDataReg(t)
	var notified []string
	r.OnChange(func(name string) { notified = append(notified, name) })
	// A database-level touch conservatively means any contained table may
	// have changed: every child is notified too.
	if err := r.Touch("hr"); err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, n := range notified {
		seen[n] = true
	}
	if !seen["hr"] || !seen["hr.jobs"] {
		t.Fatalf("notified = %v, want hr and its tables", notified)
	}
}
