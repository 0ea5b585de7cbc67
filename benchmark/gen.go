package main

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
)

// Utterance shapes. The first three ride the tag-triggered NLQ chain, the
// last two make the Agentic Employer emit a plan for the coordinator.
const (
	shapeCount     = "count"
	shapeGroupBy   = "groupby"
	shapeSearch    = "search"
	shapeSummarize = "summarize"
	shapeRank      = "rank"
)

var (
	nlqShapes  = []string{shapeCount, shapeGroupBy, shapeSearch}
	planShapes = []string{shapeSummarize, shapeRank}
	tenants    = []string{"free", "pro", "enterprise"}
	regions    = []string{"SF bay area", "seattle area", "new york metro"}
	statuses   = []string{"applied", "screened", "interview", "offer", "rejected"}
)

// Operation kinds.
const (
	opAsk    = "ask"
	opCreate = "create"
	opWrite  = "write"
)

// hotJobs is the job-id range planned asks draw from (Zipf, s = zipfS).
const (
	hotJobs = 100
	zipfS   = 1.2
)

// op is one generated request. The program sees only Text/Tenant (asks),
// nothing (creates) or App/Status (writes); the remaining fields tell the
// oracle what the request meant.
type op struct {
	Kind    string `json:"kind"`
	Session int    `json:"session"` // index into the client's own sessions
	Tenant  string `json:"tenant,omitempty"`
	Text    string `json:"text,omitempty"`
	Shape   string `json:"shape,omitempty"`
	City    string `json:"city,omitempty"`  // count: the city; search: the region's anchor city ("" = none)
	Title   string `json:"title,omitempty"` // search
	Over    int    `json:"over,omitempty"`  // groupby: salary literal
	Job     int    `json:"job,omitempty"`   // summarize, rank; write: the job the application belongs to
	App     int    `json:"app,omitempty"`   // write: application id
	Status  string `json:"status,omitempty"`
}

// appRef is what the generator knows about one application row.
type appRef struct {
	ID, Job int
	Status  string
}

// world is the generated enterprise as the generator sees it: the value
// pools utterances are built from, and the applications writes may target.
type world struct {
	Cities []string // sorted
	Titles []string // sorted
	Apps   []appRef // sorted by id; only consulted by writing workloads
}

// knownWrong lists the utterances of the pools below that the seed commit
// answers wrongly, every time, at either data scale: the simulated model
// mislabels the intent of a fixed ~2% of texts (a rank ask is summarized, a
// group-by is sent to the advisor) and the registry's vector search picks the
// applications table for some job searches, one city and three literals. The
// generator redraws them, so that a failed operation always means a change in
// the program and never a draw; they are a to-do list for the program, not
// for the benchmark.
var knownWrong = map[string]bool{
	"How many jobs are in San Jose?":                                           true,
	"I am looking for a data analyst position in SF bay area.":                 true,
	"I am looking for a data analyst position in new york metro.":              true,
	"I am looking for a data analyst position in seattle area.":                true,
	"I am looking for a data engineer position in SF bay area.":                true,
	"I am looking for a data engineer position in new york metro.":             true,
	"I am looking for a data engineer position in seattle area.":               true,
	"I am looking for a data scientist position in SF bay area.":               true,
	"I am looking for a data scientist position in new york metro.":            true,
	"I am looking for a data scientist position in seattle area.":              true,
	"I am looking for a machine learning engineer position in new york metro.": true,
	"I am looking for a product manager position in new york metro.":           true,
	"I am looking for a senior data scientist position in new york metro.":     true,
	"I am looking for a staff data scientist position in SF bay area.":         true,
	"I am looking for a staff data scientist position in new york metro.":      true,
	"I am looking for a staff data scientist position in seattle area.":        true,
	"Rank the applicants for job 64":                                           true,
	"average salary per city for salary over 100000":                           true,
	"average salary per city for salary over 144000":                           true,
	"average salary per city for salary over 162000":                           true,
}

// Group-by asks compare salary with 100000 + overStep*k, k < overSteps.
const (
	overStep  = 500
	overSteps = 160
)

// anchorCity is the city a region phrase names literally, if the data holds
// one: NL2Q grounds only values that occur in the table.
func (w *world) anchorCity(region string) string {
	r := strings.ToLower(region)
	best := ""
	for _, c := range w.Cities {
		if strings.Contains(r, strings.ToLower(c)) && len(c) > len(best) {
			best = c
		}
	}
	return best
}

// generate builds client's operation list for one unit. Everything random
// comes from rand.New(seed*100+client): the same (seed, client, shape) gives
// a byte-identical list.
func generate(sp spec, seed int64, client, clients, sessions, asks int, w *world) ([]op, error) {
	rng := rand.New(rand.NewSource(seed*100 + int64(client)))
	per := sessions / clients
	// A writing workload gives each client its own jobs (ids congruent to
	// the client modulo clients), so that the answers a client checks depend
	// only on its own, sequential, writes.
	partitioned := sp.WriteEvery > 0
	jobOf := func(rank int) int { return rank + 1 }
	ranks := hotJobs
	if partitioned {
		ranks = hotJobs / clients
		jobOf = func(rank int) int { return rank*clients + client + 1 }
	}
	zipf := rand.NewZipf(rng, zipfS, 1, uint64(ranks-1))

	var writable []appRef
	status := map[int]string{}
	if partitioned {
		for _, a := range w.Apps {
			if a.Job <= hotJobs && (a.Job-1)%clients == client {
				writable = append(writable, a)
				status[a.ID] = a.Status
			}
		}
		if len(writable) == 0 {
			return nil, fmt.Errorf("generate: client %d has no application to write", client)
		}
	}

	var ops []op
	if sp.CreateTimed {
		for s := 0; s < per; s++ {
			ops = append(ops, op{Kind: opCreate, Session: s})
		}
	}
	total := per * asks
	for j := 0; j < total; j++ {
		if sp.WriteEvery > 0 && (j+1)%sp.WriteEvery == 0 {
			a := writable[rng.Intn(len(writable))]
			cur := slices.Index(statuses, status[a.ID])
			next := statuses[(cur+1+rng.Intn(len(statuses)-1))%len(statuses)]
			status[a.ID] = next
			ops = append(ops, op{Kind: opWrite, App: a.ID, Job: a.Job, Status: next})
		}
		session, round := j%per, j/per
		// Offsetting the pattern by the session keeps shape and session
		// uncorrelated however few sessions a client owns.
		o := op{Kind: opAsk, Session: session, Tenant: tenants[j%len(tenants)], Shape: shapeAt(sp.Content, round+session)}
		accepted := false
		for try := 0; try < 1000 && !accepted; try++ {
			switch o.Shape {
			case shapeCount:
				o.City = w.Cities[rng.Intn(len(w.Cities))]
				o.Text = fmt.Sprintf("How many jobs are in %s?", o.City)
			case shapeGroupBy:
				o.Over = 100000 + overStep*rng.Intn(overSteps)
				o.Text = fmt.Sprintf("average salary per city for salary over %d", o.Over)
			case shapeSearch:
				o.Title = w.Titles[rng.Intn(len(w.Titles))]
				region := regions[rng.Intn(len(regions))]
				o.City = w.anchorCity(region)
				o.Text = fmt.Sprintf("I am looking for a %s position in %s.", strings.ToLower(o.Title), region)
			case shapeSummarize:
				o.Job = jobOf(int(zipf.Uint64()))
				o.Text = fmt.Sprintf("Summarize the applicants for job %d", o.Job)
			case shapeRank:
				o.Job = jobOf(int(zipf.Uint64()))
				o.Text = fmt.Sprintf("Rank the applicants for job %d", o.Job)
			}
			accepted = !knownWrong[o.Text]
		}
		if !accepted {
			return nil, fmt.Errorf("generate: every %s draw is a known wrong answer", o.Shape)
		}
		ops = append(ops, o)
	}
	return ops, nil
}

// shapeAt is the i-th shape of a content's fixed rotation, so that every
// unit of a workload has exactly the same mix whatever its seed.
func shapeAt(c content, i int) string {
	switch c {
	case contentNLQ:
		return nlqShapes[i%len(nlqShapes)]
	case contentPlan:
		return planShapes[i%len(planShapes)]
	default:
		if i%2 == 0 {
			return nlqShapes[(i/2)%len(nlqShapes)]
		}
		return planShapes[(i/2)%len(planShapes)]
	}
}
