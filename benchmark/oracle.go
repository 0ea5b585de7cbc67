package main

import (
	"fmt"
	"maps"
	"regexp"
	"slices"
	"sort"
	"strings"

	"blueprint/internal/relational"
)

// The oracle re-derives every expected answer from the raw rows, read once
// with two direct statements on Enterprise.DB during (untimed) set-up, so
// that checking answers never adds statements to the measured run. Writes
// update its copy of the application rows; verify compares that copy with
// the database when the run ends.

type jobRow struct {
	Title, City string
	Salary      int
}

type appRow struct {
	ID      int
	Profile string
	Status  string
	Score   float64
}

type oracle struct {
	jobs      map[int]jobRow
	cityJobs  map[string]int    // city -> jobs
	titleJobs map[[2]string]int // (title, city or "") -> jobs
	salaries  []cityPay         // for the group-by row count
	apps      map[int][]*appRow // job id -> its applications
	appByID   map[int]*appRow
}

type cityPay struct {
	City   string
	Salary int
}

func loadOracle(db *relational.DB) (*oracle, *world, error) {
	o := &oracle{
		jobs: map[int]jobRow{}, cityJobs: map[string]int{}, titleJobs: map[[2]string]int{},
		apps: map[int][]*appRow{}, appByID: map[int]*appRow{},
	}
	jobs, err := db.Query(`SELECT id, title, city, salary FROM jobs`)
	if err != nil {
		return nil, nil, fmt.Errorf("oracle: reading jobs: %w", err)
	}
	titles := map[string]int{}
	for _, r := range jobs.Rows {
		j := jobRow{Title: r[1].S, City: r[2].S, Salary: int(r[3].I)}
		o.jobs[int(r[0].I)] = j
		o.cityJobs[j.City]++
		o.titleJobs[[2]string{j.Title, j.City}]++
		o.titleJobs[[2]string{j.Title, ""}]++
		o.salaries = append(o.salaries, cityPay{j.City, j.Salary})
		titles[j.Title]++
	}
	apps, err := db.Query(`SELECT id, job_id, profile_id, status, score FROM applications`)
	if err != nil {
		return nil, nil, fmt.Errorf("oracle: reading applications: %w", err)
	}
	w := &world{Cities: slices.Sorted(maps.Keys(o.cityJobs)), Titles: slices.Sorted(maps.Keys(titles))}
	for _, r := range apps.Rows {
		a := &appRow{ID: int(r[0].I), Profile: r[2].S, Status: r[3].S, Score: r[4].F}
		job := int(r[1].I)
		o.apps[job] = append(o.apps[job], a)
		o.appByID[a.ID] = a
		w.Apps = append(w.Apps, appRef{ID: a.ID, Job: job, Status: a.Status})
	}
	sort.Slice(w.Apps, func(i, j int) bool { return w.Apps[i].ID < w.Apps[j].ID })
	return o, w, nil
}

// applyWrite records a status UPDATE the benchmark itself issued.
func (o *oracle) applyWrite(app int, status string) {
	o.appByID[app].Status = status
}

var (
	profileRe = regexp.MustCompile(`p\d{4}`)
	statusRe  = regexp.MustCompile(strings.Join(statuses, "|"))
)

// check reports why answer is not the correct answer to the ask, or nil.
func (o *oracle) check(q *op, answer string) error {
	if answer == "" {
		return fmt.Errorf("empty answer")
	}
	want := func(sub string) error {
		if !strings.Contains(answer, sub) {
			return fmt.Errorf("%s %q: answer lacks %q: %.160q", q.Shape, q.Text, sub, answer)
		}
		return nil
	}
	switch q.Shape {
	case shapeCount:
		if err := want("The query returned 1 rows."); err != nil {
			return err
		}
		return want(fmt.Sprintf("n: %d.", o.cityJobs[q.City]))
	case shapeGroupBy:
		cities := map[string]bool{}
		for _, s := range o.salaries {
			if s.Salary > q.Over {
				cities[s.City] = true
			}
		}
		if err := want("avg_salary: "); len(cities) > 0 && err != nil {
			return err
		}
		return want(fmt.Sprintf("The query returned %d rows.", len(cities)))
	case shapeSearch:
		n := o.titleJobs[[2]string{q.Title, q.City}]
		if err := want("title: " + q.Title); n > 0 && err != nil {
			return err
		}
		return want(fmt.Sprintf("The query returned %d rows.", n))
	case shapeSummarize:
		j, ok := o.jobs[q.Job]
		if !ok {
			return fmt.Errorf("summarize: job %d not in the data", q.Job)
		}
		if err := want(fmt.Sprintf("Job %d: %s in %s paying %d.", q.Job, j.Title, j.City, j.Salary)); err != nil {
			return err
		}
		counts := map[string]int{}
		for _, a := range o.apps[q.Job] {
			counts[a.Status]++
		}
		for _, st := range statuses {
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
		// coordinator's RANKED rows as JSON; both list the same applicants
		// in the same order.
		top := append([]*appRow(nil), o.apps[q.Job]...)
		sort.SliceStable(top, func(i, k int) bool { return top[i].Score > top[k].Score })
		if len(top) > 10 {
			top = top[:10]
		}
		if strings.HasPrefix(answer, "Top applicants") {
			if err := want(fmt.Sprintf("Top applicants for job %d:", q.Job)); err != nil {
				return err
			}
		}
		gotP, gotS := profileRe.FindAllString(answer, -1), statusRe.FindAllString(answer, -1)
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

// verify compares the oracle's application statuses with the database: the
// writes the benchmark issued, and nothing else, must be what the data holds.
func (o *oracle) verify(db *relational.DB) error {
	res, err := db.Query(`SELECT id, status FROM applications`)
	if err != nil {
		return fmt.Errorf("oracle: re-reading applications: %w", err)
	}
	if len(res.Rows) != len(o.appByID) {
		return fmt.Errorf("oracle: %d applications in the database, %d expected", len(res.Rows), len(o.appByID))
	}
	for _, r := range res.Rows {
		if a := o.appByID[int(r[0].I)]; a == nil || a.Status != r[1].S {
			return fmt.Errorf("oracle: application %d has status %q in the database, expected %+v", r[0].I, r[1].S, a)
		}
	}
	return nil
}
