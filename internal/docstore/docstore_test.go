package docstore

import (
	"errors"
	"fmt"
	"testing"
	"testing/quick"
)

func newProfiles(t testing.TB) *Store {
	t.Helper()
	s := NewStore()
	s.EnsureCollection("profiles")
	docs := []struct {
		id  string
		doc Doc
	}{
		{"p1", Doc{"name": "Ada", "title": "Data Scientist", "years": 5, "skills": []any{"python", "sql", "ml"}, "city": "San Francisco"}},
		{"p2", Doc{"name": "Grace", "title": "ML Engineer", "years": 8, "skills": []any{"go", "ml"}, "city": "Oakland"}},
		{"p3", Doc{"name": "Alan", "title": "Data Analyst", "years": 2, "skills": []any{"sql", "excel"}, "city": "San Jose"}},
		{"p4", Doc{"name": "Edsger", "title": "Data Scientist", "years": 11, "skills": []any{"python", "stats"}, "city": "Berkeley", "address": map[string]any{"zip": "94720"}}},
	}
	for _, d := range docs {
		if err := s.Insert("profiles", d.id, d.doc); err != nil {
			t.Fatal(err)
		}
	}
	return s
}

func TestInsertGetDelete(t *testing.T) {
	s := newProfiles(t)
	d, err := s.Get("profiles", "p1")
	if err != nil {
		t.Fatal(err)
	}
	if d["name"] != "Ada" {
		t.Fatalf("doc = %v", d)
	}
	// Returned doc is a copy.
	d["name"] = "mutated"
	d2, _ := s.Get("profiles", "p1")
	if d2["name"] != "Ada" {
		t.Fatal("Get leaked internal state")
	}
	if _, err := s.Get("profiles", "p9"); !errors.Is(err, ErrDocNotFound) {
		t.Fatalf("err = %v", err)
	}
}

func TestInsertDuplicate(t *testing.T) {
	s := newProfiles(t)
	if err := s.Insert("profiles", "p1", Doc{}); !errors.Is(err, ErrDuplicateID) {
		t.Fatalf("err = %v", err)
	}
}

func TestCollectionErrors(t *testing.T) {
	s := NewStore()
	s.EnsureCollection("a")
	if _, err := s.Get("missing", "x"); !errors.Is(err, ErrCollectionNotFound) {
		t.Fatalf("err = %v", err)
	}
	s.EnsureCollection("A") // existing (names are case-insensitive): kept, not replaced
	s.EnsureCollection("b")
	if len(s.Collections()) != 2 {
		t.Fatalf("collections = %v", s.Collections())
	}
}

func TestFindFilters(t *testing.T) {
	s := newProfiles(t)
	cases := []struct {
		name    string
		filters []Filter
		want    int
	}{
		{"eq", []Filter{{Field: "title", Op: Eq, Value: "Data Scientist"}}, 2},
		{"ne", []Filter{{Field: "title", Op: Ne, Value: "Data Scientist"}}, 2},
		{"gt", []Filter{{Field: "years", Op: Gt, Value: 5}}, 2},
		{"gte", []Filter{{Field: "years", Op: Gte, Value: 5}}, 3},
		{"lt", []Filter{{Field: "years", Op: Lt, Value: 5}}, 1},
		{"lte", []Filter{{Field: "years", Op: Lte, Value: 5}}, 2},
		{"contains-string", []Filter{{Field: "title", Op: Contains, Value: "data"}}, 3},
		{"contains-array", []Filter{{Field: "skills", Op: Contains, Value: "ml"}}, 2},
		{"exists", []Filter{{Field: "address", Op: Exists}}, 1},
		{"in", []Filter{{Field: "city", Op: In, Value: []string{"Oakland", "Berkeley"}}}, 2},
		{"and", []Filter{{Field: "title", Op: Eq, Value: "Data Scientist"}, {Field: "years", Op: Gt, Value: 6}}, 1},
		{"missing-field", []Filter{{Field: "nope", Op: Eq, Value: 1}}, 0},
	}
	for _, c := range cases {
		hits, err := s.Find("profiles", Query{Filters: c.filters})
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if len(hits) != c.want {
			t.Errorf("%s: hits = %d, want %d", c.name, len(hits), c.want)
		}
	}
}

func TestFindSortLimitOffset(t *testing.T) {
	s := newProfiles(t)
	hits, err := s.Find("profiles", Query{SortBy: "years", Desc: true, Limit: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(hits) != 2 || hits[0].ID != "p4" || hits[1].ID != "p2" {
		t.Fatalf("sorted = %v", hits)
	}
	hits, _ = s.Find("profiles", Query{SortBy: "years", Offset: 3})
	if len(hits) != 1 || hits[0].ID != "p4" {
		t.Fatalf("offset = %v", hits)
	}
	hits, _ = s.Find("profiles", Query{SortBy: "years", Offset: 99})
	if len(hits) != 0 {
		t.Fatalf("offset beyond = %v", hits)
	}
}

func TestFindProjection(t *testing.T) {
	s := newProfiles(t)
	hits, err := s.Find("profiles", Query{
		Filters: []Filter{{Field: "name", Op: Eq, Value: "Edsger"}},
		Fields:  []string{"name", "address.zip"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(hits) != 1 {
		t.Fatalf("hits = %v", hits)
	}
	d := hits[0].Doc
	if d["name"] != "Edsger" || d["address.zip"] != "94720" {
		t.Fatalf("projection = %v", d)
	}
	if _, ok := d["title"]; ok {
		t.Fatal("projection leaked unrequested field")
	}
}

func TestIndexedFind(t *testing.T) {
	s := newProfiles(t)
	if err := s.CreateIndex("profiles", "title"); err != nil {
		t.Fatal(err)
	}
	// Same results through the index.
	hits, err := s.Find("profiles", Query{Filters: []Filter{{Field: "title", Op: Eq, Value: "Data Scientist"}}})
	if err != nil {
		t.Fatal(err)
	}
	if len(hits) != 2 {
		t.Fatalf("indexed eq = %v", hits)
	}
	hits, _ = s.Find("profiles", Query{Filters: []Filter{{Field: "title", Op: In, Value: []string{"Data Analyst", "ML Engineer"}}}})
	if len(hits) != 2 {
		t.Fatalf("indexed in = %v", hits)
	}
	// Index maintained across a later insert.
	if err := s.Insert("profiles", "p5", Doc{"title": "Data Scientist"}); err != nil {
		t.Fatal(err)
	}
	hits, _ = s.Find("profiles", Query{Filters: []Filter{{Field: "title", Op: Eq, Value: "Data Scientist"}}})
	if len(hits) != 3 {
		t.Fatalf("after insert = %d", len(hits))
	}
	// Creating the same index twice is a no-op.
	if err := s.CreateIndex("profiles", "title"); err != nil {
		t.Fatal(err)
	}
}

func TestCollectionsInfo(t *testing.T) {
	s := newProfiles(t)
	if err := s.CreateIndex("profiles", "city"); err != nil {
		t.Fatal(err)
	}
	infos := s.Collections()
	if len(infos) != 1 {
		t.Fatalf("infos = %v", infos)
	}
	ci := infos[0]
	if ci.Name != "profiles" || ci.Docs != 4 {
		t.Fatalf("info = %+v", ci)
	}
	if len(ci.Indexed) != 1 || ci.Indexed[0] != "city" {
		t.Fatalf("indexed = %v", ci.Indexed)
	}
	found := false
	for _, f := range ci.Fields {
		if f == "skills" {
			found = true
		}
	}
	if !found {
		t.Fatalf("fields = %v", ci.Fields)
	}
}

func TestDottedGet(t *testing.T) {
	d := Doc{"a": map[string]any{"b": []any{map[string]any{"c": 42}}}}
	v, ok := d.Get("a.b.0.c")
	if !ok || v != 42 {
		t.Fatalf("dotted get = %v %v", v, ok)
	}
	if _, ok := d.Get("a.b.5.c"); ok {
		t.Fatal("out-of-range index matched")
	}
	if _, ok := d.Get("a.x"); ok {
		t.Fatal("missing key matched")
	}
	if _, ok := d.Get("a.b.0.c.d"); ok {
		t.Fatal("descend into scalar matched")
	}
}

func TestCompareAnyNumericUnification(t *testing.T) {
	if compareAny(3, 3.0) != 0 || compareAny(int64(3), 3) != 0 {
		t.Fatal("numeric unification broken")
	}
	if compareAny(2, 3.5) >= 0 {
		t.Fatal("2 < 3.5 expected")
	}
	if compareAny("a", "b") >= 0 {
		t.Fatal("string compare broken")
	}
	if compareAny(nil, 1) >= 0 || compareAny(1, nil) <= 0 {
		t.Fatal("nil ordering broken")
	}
	if compareAny(false, true) >= 0 {
		t.Fatal("bool ordering broken")
	}
}

func TestCompareAnyTotalOrderProperty(t *testing.T) {
	f := func(a, b float64) bool {
		x := compareAny(a, b)
		y := compareAny(b, a)
		return x == -y
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestInsertClonesInput(t *testing.T) {
	s := NewStore()
	s.EnsureCollection("c")
	doc := Doc{"list": []any{1, 2}}
	if err := s.Insert("c", "x", doc); err != nil {
		t.Fatal(err)
	}
	doc["list"].([]any)[0] = 99
	got, _ := s.Get("c", "x")
	if got["list"].([]any)[0] != 1 {
		t.Fatal("Insert did not clone input")
	}
}

func TestConcurrentAccess(t *testing.T) {
	s := NewStore()
	s.EnsureCollection("c")
	done := make(chan error, 2)
	go func() {
		for i := 0; i < 50; i++ {
			if err := s.Insert("c", fmt.Sprintf("d%d", i), Doc{"i": i}); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	go func() {
		for i := 0; i < 300; i++ {
			if _, err := s.Find("c", Query{Filters: []Filter{{Field: "i", Op: Gte, Value: 0}}}); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	for i := 0; i < 2; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	if n := s.Collections()[0].Docs; n != 50 {
		t.Fatalf("count = %d", n)
	}
}
