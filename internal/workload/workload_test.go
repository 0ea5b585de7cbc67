package workload

import (
	"testing"
)

func TestBuildDeterministic(t *testing.T) {
	a, err := Build(42, SmallScale())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Build(42, SmallScale())
	if err != nil {
		t.Fatal(err)
	}
	ra, _ := a.DB.Query(`SELECT id, title, city, salary FROM jobs ORDER BY id`)
	rb, _ := b.DB.Query(`SELECT id, title, city, salary FROM jobs ORDER BY id`)
	if len(ra.Rows) != len(rb.Rows) {
		t.Fatalf("row counts differ: %d vs %d", len(ra.Rows), len(rb.Rows))
	}
	for i := range ra.Rows {
		for j := range ra.Rows[i] {
			if ra.Rows[i][j].String() != rb.Rows[i][j].String() {
				t.Fatalf("row %d col %d differs: %v vs %v", i, j, ra.Rows[i][j], rb.Rows[i][j])
			}
		}
	}
	// Different seed differs somewhere.
	c, _ := Build(43, SmallScale())
	rc, _ := c.DB.Query(`SELECT id, title, city, salary FROM jobs ORDER BY id`)
	same := true
	for i := range ra.Rows {
		if ra.Rows[i][1].String() != rc.Rows[i][1].String() || ra.Rows[i][2].String() != rc.Rows[i][2].String() {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical jobs")
	}
}

func TestBuildCounts(t *testing.T) {
	sc := SmallScale()
	e, err := Build(7, sc)
	if err != nil {
		t.Fatal(err)
	}
	for _, check := range []struct {
		table string
		want  int
	}{
		{"companies", sc.Companies},
		{"jobs", sc.Jobs},
		{"applications", sc.Applications},
	} {
		res, err := e.DB.Query("SELECT COUNT(*) FROM " + check.table)
		if err != nil {
			t.Fatal(err)
		}
		if int(res.Rows[0][0].I) != check.want {
			t.Fatalf("%s = %v, want %d", check.table, res.Rows[0][0], check.want)
		}
	}
	if n := e.Docs.Collections()[0].Docs; n != sc.Profiles {
		t.Fatalf("profiles = %d", n)
	}
	nodes, edges := e.Graph.Stats()
	if nodes < 15 || edges < 15 {
		t.Fatalf("taxonomy = %d nodes %d edges", nodes, edges)
	}
}

func TestIndexesRegistered(t *testing.T) {
	e, err := Build(7, SmallScale())
	if err != nil {
		t.Fatal(err)
	}
	info, err := e.DB.Table("jobs")
	if err != nil {
		t.Fatal(err)
	}
	if len(info.Indexes) != 3 {
		t.Fatalf("jobs indexes = %+v", info.Indexes)
	}
}

func TestGroundTruthConsistent(t *testing.T) {
	e, err := Build(11, SmallScale())
	if err != nil {
		t.Fatal(err)
	}
	if len(e.BayAreaDSJobIDs) == 0 {
		t.Fatal("no ground-truth jobs generated; scale too small or bug")
	}
	// Re-derive the ground truth from SQL and compare.
	res, err := e.DB.Query(`SELECT id FROM jobs WHERE
		city IN ('San Francisco','Oakland','San Jose','Berkeley','Palo Alto','Mountain View','Sunnyvale','Fremont','Redwood City','Santa Clara')
		AND title IN ('Data Scientist','Senior Data Scientist','Staff Data Scientist','Machine Learning Engineer','Applied Scientist')`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != len(e.BayAreaDSJobIDs) {
		t.Fatalf("ground truth mismatch: map=%d sql=%d", len(e.BayAreaDSJobIDs), len(res.Rows))
	}
	for _, r := range res.Rows {
		if !e.BayAreaDSJobIDs[r[0].I] {
			t.Fatalf("id %d missing from ground truth", r[0].I)
		}
	}
}

func TestProfilesShape(t *testing.T) {
	e, err := Build(3, SmallScale())
	if err != nil {
		t.Fatal(err)
	}
	hits, err := e.Docs.Find("profiles", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(hits) == 0 {
		t.Fatal("no profiles")
	}
	for _, h := range hits {
		for _, field := range []string{"name", "title", "city", "years", "skills"} {
			if _, ok := h.Doc[field]; !ok {
				t.Fatalf("profile %s missing %s: %v", h.ID, field, h.Doc)
			}
		}
		skills := h.Doc["skills"].([]any)
		if len(skills) < 2 {
			t.Fatalf("profile %s skills = %v", h.ID, skills)
		}
	}
}

func TestQueriesWorkload(t *testing.T) {
	qs := Queries(5, 40)
	if len(qs) != 40 {
		t.Fatalf("queries = %d", len(qs))
	}
	kinds := map[QueryKind]int{}
	for _, q := range qs {
		kinds[q.Kind]++
		if q.Text == "" {
			t.Fatal("empty query text")
		}
	}
	if kinds[KindJobSearch] != 10 || kinds[KindOpenQuery] != 20 || kinds[KindSummarize] != 10 {
		t.Fatalf("kind mix = %v", kinds)
	}
	// Determinism.
	qs2 := Queries(5, 40)
	for i := range qs {
		if qs[i] != qs2[i] {
			t.Fatal("workload not deterministic")
		}
	}
}

func TestTaxonomyRelatedEdges(t *testing.T) {
	e, err := Build(1, SmallScale())
	if err != nil {
		t.Fatal(err)
	}
	rel, err := e.Graph.Traverse("t:data_scientist", "related", 0, 1) // Out, one hop
	if err != nil {
		t.Fatal(err)
	}
	if rel = rel[1:]; len(rel) != 4 { // without the start node
		t.Fatalf("related = %v", rel)
	}
}
