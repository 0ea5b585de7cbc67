package docstore

import (
	"errors"
	"fmt"
	"testing"
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

// find is Find for a test that expects no error.
func find(t testing.TB, s *Store, coll, field string, value any) []Hit {
	t.Helper()
	hits, err := s.Find(coll, field, value)
	if err != nil {
		t.Fatal(err)
	}
	return hits
}

func TestInsertGetDelete(t *testing.T) {
	s := newProfiles(t)
	hits := find(t, s, "profiles", "name", "Ada")
	if len(hits) != 1 || hits[0].ID != "p1" || hits[0].Doc["title"] != "Data Scientist" {
		t.Fatalf("hits = %v", hits)
	}
	// Returned doc is a copy, nested values too.
	hits[0].Doc["name"] = "mutated"
	hits[0].Doc["skills"].([]any)[0] = "mutated"
	again := find(t, s, "profiles", "", nil)
	if len(again) != 4 || again[0].ID != "p1" || again[3].ID != "p4" {
		t.Fatalf("all documents, in insertion order = %v", again)
	}
	if again[0].Doc["name"] != "Ada" || again[0].Doc["skills"].([]any)[0] != "python" {
		t.Fatal("Find leaked internal state")
	}
	if hits := find(t, s, "profiles", "name", "nobody"); len(hits) != 0 {
		t.Fatalf("hits = %v", hits)
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
	if _, err := s.Find("missing", "", nil); !errors.Is(err, ErrCollectionNotFound) {
		t.Fatalf("err = %v", err)
	}
	s.EnsureCollection("A") // existing (names are case-insensitive): kept, not replaced
	s.EnsureCollection("b")
	if len(s.Collections()) != 2 {
		t.Fatalf("collections = %v", s.Collections())
	}
}

// TestFindFilters: the one predicate, field = value, by scanning.
func TestFindFilters(t *testing.T) {
	s := newProfiles(t)
	cases := []struct {
		name  string
		field string
		value any
		want  int
	}{
		{"eq", "title", "Data Scientist", 2},
		{"eq-number", "years", 5, 1},
		{"eq-number-unified", "years", 5.0, 1},
		{"eq-number-int64", "years", int64(11), 1},
		{"string-is-no-number", "years", "5", 0},
		{"dotted", "address.zip", "94720", 1},
		{"array-element", "skills.1", "ml", 1},
		{"missing-field", "nope", 1, 0},
		{"missing-field-nil", "nope", nil, 0},
		{"all", "", nil, 4},
	}
	for _, c := range cases {
		if hits := find(t, s, "profiles", c.field, c.value); len(hits) != c.want {
			t.Errorf("%s: hits = %d, want %d", c.name, len(hits), c.want)
		}
	}
}

func TestIndexedFind(t *testing.T) {
	s := newProfiles(t)
	if err := s.CreateIndex("profiles", "title"); err != nil {
		t.Fatal(err)
	}
	if err := s.CreateIndex("profiles", "years"); err != nil {
		t.Fatal(err)
	}
	// Same results through the index, in insertion order.
	hits := find(t, s, "profiles", "title", "Data Scientist")
	if len(hits) != 2 || hits[0].ID != "p1" || hits[1].ID != "p4" {
		t.Fatalf("indexed eq = %v", hits)
	}
	if hits := find(t, s, "profiles", "years", 5.0); len(hits) != 1 || hits[0].ID != "p1" {
		t.Fatalf("indexed number, unified = %v", hits)
	}
	if hits := find(t, s, "profiles", "years", "5"); len(hits) != 0 {
		t.Fatalf("indexed number against a string = %v", hits)
	}
	// Index maintained across a later insert.
	if err := s.Insert("profiles", "p5", Doc{"title": "Data Scientist"}); err != nil {
		t.Fatal(err)
	}
	if hits = find(t, s, "profiles", "title", "Data Scientist"); len(hits) != 3 {
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

func TestInsertClonesInput(t *testing.T) {
	s := NewStore()
	s.EnsureCollection("c")
	doc := Doc{"list": []any{1, 2}}
	if err := s.Insert("c", "x", doc); err != nil {
		t.Fatal(err)
	}
	doc["list"].([]any)[0] = 99
	got := find(t, s, "c", "", nil)
	if len(got) != 1 || got[0].Doc["list"].([]any)[0] != 1 {
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
			if _, err := s.Find("c", "i", 0); err != nil {
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
