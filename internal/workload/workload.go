// Package workload generates the synthetic YourJourney enterprise (§II):
// relational jobs/companies/applications data, document-store job-seeker
// profiles, the job-title taxonomy graph, and natural-language query
// workloads. Everything is seeded and deterministic so every experiment
// table is reproducible bit-for-bit.
package workload

import (
	"fmt"
	"math/rand"
	"strings"

	"blueprint/internal/docstore"
	"blueprint/internal/graphstore"
	"blueprint/internal/llm"
	"blueprint/internal/relational"
)

// Scale sizes a generated enterprise.
type Scale struct {
	Companies    int
	Jobs         int
	Profiles     int
	Applications int
}

// SmallScale is the default test scale.
func SmallScale() Scale {
	return Scale{Companies: 20, Jobs: 200, Profiles: 100, Applications: 500}
}

// MediumScale exercises planner/index behaviour.
func MediumScale() Scale {
	return Scale{Companies: 100, Jobs: 5000, Profiles: 2000, Applications: 20000}
}

var (
	titles = []string{
		"Data Scientist", "Senior Data Scientist", "Staff Data Scientist",
		"Machine Learning Engineer", "Applied Scientist", "Data Analyst",
		"Software Engineer", "Senior Software Engineer", "Backend Engineer",
		"Research Scientist", "Data Engineer", "Product Manager",
	}
	// dsTitles are the ground-truth titles related to "data scientist",
	// used by the Fig. 7 recall measurement.
	dsTitles = map[string]bool{
		"Data Scientist": true, "Senior Data Scientist": true, "Staff Data Scientist": true,
		"Machine Learning Engineer": true, "Applied Scientist": true,
	}
	cities = []string{
		// SF bay area (mirrors the knowledge base).
		"San Francisco", "Oakland", "San Jose", "Berkeley", "Palo Alto",
		"Mountain View", "Sunnyvale", "Fremont", "Redwood City", "Santa Clara",
		// Elsewhere.
		"Seattle", "Bellevue", "New York", "Brooklyn", "Los Angeles",
		"San Diego", "Austin", "Denver", "Chicago", "Boston",
	}
	bayAreaCities = map[string]bool{
		"San Francisco": true, "Oakland": true, "San Jose": true, "Berkeley": true,
		"Palo Alto": true, "Mountain View": true, "Sunnyvale": true, "Fremont": true,
		"Redwood City": true, "Santa Clara": true,
	}
	companyPrefixes = []string{"Acme", "Data", "Cloud", "Quant", "Hyper", "Meta", "Nimbus", "Vertex", "Apex", "Blue"}
	companySuffixes = []string{"AI", "Works", "Labs", "Systems", "Soft", "Dynamics", "Forge", "Scale", "Logic", "Core"}
	firstNames      = []string{"Ada", "Alan", "Grace", "Edsger", "Barbara", "Donald", "John", "Leslie", "Tim", "Margaret", "Ken", "Dennis", "Radia", "Frances", "Guido", "Rob"}
	lastNames       = []string{"Lovelace", "Turing", "Hopper", "Dijkstra", "Liskov", "Knuth", "McCarthy", "Lamport", "Berners-Lee", "Hamilton", "Thompson", "Ritchie", "Perlman", "Allen", "Rossum", "Pike"}
	skillPool       = []string{"python", "sql", "go", "statistics", "machine learning", "deep learning", "mlops", "spark", "excel", "dashboards", "apis", "distributed systems", "experimentation", "java", "kubernetes"}
	statuses        = []string{"applied", "screened", "interview", "offer", "rejected"}
)

// Enterprise is a fully generated YourJourney instance.
type Enterprise struct {
	DB    *relational.DB
	Docs  *docstore.Store
	Graph *graphstore.Graph
	KB    *llm.KnowledgeBase
	Scale Scale
	// BayAreaDSJobIDs is the Fig. 7 ground truth: ids of jobs with a
	// data-scientist-related title in an SF-bay-area city.
	BayAreaDSJobIDs map[int64]bool
}

// Build generates a deterministic enterprise at the given scale.
func Build(seed int64, sc Scale) (*Enterprise, error) {
	rng := rand.New(rand.NewSource(seed))
	ent := &Enterprise{
		DB:              relational.NewDB(),
		Docs:            docstore.NewStore(),
		Graph:           graphstore.NewGraph(),
		KB:              llm.DefaultKnowledgeBase(),
		Scale:           sc,
		BayAreaDSJobIDs: map[int64]bool{},
	}
	if err := ent.buildRelational(rng, sc); err != nil {
		return nil, err
	}
	if err := ent.buildProfiles(rng, sc); err != nil {
		return nil, err
	}
	if err := ent.buildTaxonomy(); err != nil {
		return nil, err
	}
	return ent, nil
}

func (e *Enterprise) buildRelational(rng *rand.Rand, sc Scale) error {
	stmts := []string{
		`CREATE TABLE companies (id INT, name TEXT, size TEXT, hq_city TEXT)`,
		`CREATE TABLE jobs (id INT, title TEXT, city TEXT, company_id INT, salary INT, remote BOOL)`,
		`CREATE TABLE applications (id INT, job_id INT, profile_id TEXT, status TEXT, score FLOAT, years INT)`,
		`CREATE INDEX idx_jobs_city ON jobs (city)`,
		`CREATE INDEX idx_jobs_title ON jobs (title)`,
		`CREATE ORDERED INDEX idx_jobs_salary ON jobs (salary)`,
		`CREATE INDEX idx_apps_job ON applications (job_id)`,
		`CREATE INDEX idx_apps_status ON applications (status)`,
	}
	for _, s := range stmts {
		if _, err := e.DB.Exec(s); err != nil {
			return err
		}
	}
	sizes := []string{"small", "mid", "large"}
	for i := 1; i <= sc.Companies; i++ {
		name := companyPrefixes[rng.Intn(len(companyPrefixes))] + companySuffixes[rng.Intn(len(companySuffixes))]
		name = fmt.Sprintf("%s %d", name, i)
		if _, err := e.DB.Exec(`INSERT INTO companies VALUES (?, ?, ?, ?)`,
			i, name, sizes[rng.Intn(len(sizes))], cities[rng.Intn(len(cities))]); err != nil {
			return err
		}
	}
	for i := 1; i <= sc.Jobs; i++ {
		title := titles[rng.Intn(len(titles))]
		city := cities[rng.Intn(len(cities))]
		salary := 90000 + rng.Intn(160)*1000
		if _, err := e.DB.Exec(`INSERT INTO jobs VALUES (?, ?, ?, ?, ?, ?)`,
			i, title, city, 1+rng.Intn(sc.Companies), salary, rng.Intn(4) == 0); err != nil {
			return err
		}
		if dsTitles[title] && bayAreaCities[city] {
			e.BayAreaDSJobIDs[int64(i)] = true
		}
	}
	for i := 1; i <= sc.Applications; i++ {
		if _, err := e.DB.Exec(`INSERT INTO applications VALUES (?, ?, ?, ?, ?, ?)`,
			i, 1+rng.Intn(sc.Jobs), fmt.Sprintf("p%04d", 1+rng.Intn(max(sc.Profiles, 1))),
			statuses[rng.Intn(len(statuses))], 0.3+rng.Float64()*0.7, rng.Intn(20)); err != nil {
			return err
		}
	}
	return nil
}

func (e *Enterprise) buildProfiles(rng *rand.Rand, sc Scale) error {
	e.Docs.EnsureCollection("profiles")
	for i := 1; i <= sc.Profiles; i++ {
		nSkills := 2 + rng.Intn(4)
		skills := make([]any, 0, nSkills)
		seen := map[string]bool{}
		for len(skills) < nSkills {
			s := skillPool[rng.Intn(len(skillPool))]
			if !seen[s] {
				seen[s] = true
				skills = append(skills, s)
			}
		}
		doc := docstore.Doc{
			"name":   firstNames[rng.Intn(len(firstNames))] + " " + lastNames[rng.Intn(len(lastNames))],
			"title":  titles[rng.Intn(len(titles))],
			"city":   cities[rng.Intn(len(cities))],
			"years":  rng.Intn(20),
			"skills": skills,
		}
		if err := e.Docs.Insert("profiles", fmt.Sprintf("p%04d", i), doc); err != nil {
			return err
		}
	}
	return e.Docs.CreateIndex("profiles", "title")
}

// buildTaxonomy constructs the title taxonomy graph: categories with child
// titles, plus "related" edges within the data-science family.
func (e *Enterprise) buildTaxonomy() error {
	cats := map[string][]string{
		"data":     {"Data Scientist", "Senior Data Scientist", "Staff Data Scientist", "Data Analyst", "Data Engineer"},
		"ml":       {"Machine Learning Engineer", "Applied Scientist", "Research Scientist"},
		"software": {"Software Engineer", "Senior Software Engineer", "Backend Engineer"},
		"product":  {"Product Manager"},
	}
	if err := e.Graph.AddNode("root", "category", map[string]any{"name": "Engineering"}); err != nil {
		return err
	}
	for cat, ts := range cats {
		if err := e.Graph.AddNode(cat, "category", map[string]any{"name": cat}); err != nil {
			return err
		}
		if err := e.Graph.AddEdge("root", cat, "child", nil); err != nil {
			return err
		}
		for _, t := range ts {
			id := "t:" + strings.ToLower(strings.ReplaceAll(t, " ", "_"))
			if err := e.Graph.AddNode(id, "title", map[string]any{"name": t}); err != nil {
				return err
			}
			if err := e.Graph.AddEdge(cat, id, "child", nil); err != nil {
				return err
			}
		}
	}
	// Related edges: the DS family (ground truth for Fig. 7 expansion).
	related := [][2]string{
		{"t:data_scientist", "t:senior_data_scientist"},
		{"t:data_scientist", "t:staff_data_scientist"},
		{"t:data_scientist", "t:machine_learning_engineer"},
		{"t:data_scientist", "t:applied_scientist"},
	}
	for _, r := range related {
		if err := e.Graph.AddEdge(r[0], r[1], "related", nil); err != nil {
			return err
		}
	}
	return nil
}

// QueryKind labels generated utterances.
type QueryKind string

// Query kinds.
const (
	KindJobSearch QueryKind = "job_search"
	KindOpenQuery QueryKind = "open_query"
	KindSummarize QueryKind = "summarize"
	KindRank      QueryKind = "rank"
)

// Query is one generated utterance.
type Query struct {
	Kind QueryKind
	Text string
}

// Queries generates a deterministic mixed workload of n utterances.
func Queries(seed int64, n int) []Query {
	rng := rand.New(rand.NewSource(seed))
	regions := []string{"SF bay area", "seattle area", "new york metro"}
	out := make([]Query, 0, n)
	for i := 0; i < n; i++ {
		switch i % 4 {
		case 0:
			out = append(out, Query{KindJobSearch, fmt.Sprintf(
				"I am looking for a %s position in %s.",
				strings.ToLower(titles[rng.Intn(len(titles))]), regions[rng.Intn(len(regions))])})
		case 1:
			out = append(out, Query{KindOpenQuery, fmt.Sprintf(
				"How many jobs are in %s?", cities[rng.Intn(len(cities))])})
		case 2:
			out = append(out, Query{KindOpenQuery, fmt.Sprintf(
				"average salary per city for salary over %d", 100000+rng.Intn(80)*1000)})
		default:
			out = append(out, Query{KindSummarize, fmt.Sprintf(
				"Summarize the applicants for job %d", 1+rng.Intn(100))})
		}
	}
	return out
}
