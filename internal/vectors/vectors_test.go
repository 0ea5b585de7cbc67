package vectors

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"
)

func TestTokenize(t *testing.T) {
	cases := []struct {
		in   string
		want []string
	}{
		{"Data Scientist, SF Bay-Area!", []string{"data", "scientist", "sf", "bay", "area"}},
		{"", nil},
		{"   ", nil},
		{"abc123 DEF", []string{"abc123", "def"}},
		{"a.b.c", []string{"a", "b", "c"}},
	}
	for _, c := range cases {
		got := Tokenize(c.in)
		if len(got) != len(c.want) {
			t.Fatalf("Tokenize(%q) = %v, want %v", c.in, got, c.want)
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Errorf("Tokenize(%q)[%d] = %q, want %q", c.in, i, got[i], c.want[i])
			}
		}
	}
}

func TestEmbedDeterministic(t *testing.T) {
	e := NewEmbedder(64)
	a := e.Embed("job matching for data scientists")
	b := e.Embed("job matching for data scientists")
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("embedding not deterministic at dim %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestEmbedUnitNorm(t *testing.T) {
	e := NewEmbedder(0)
	if e.Dim() != DefaultDim {
		t.Fatalf("default dim = %d, want %d", e.Dim(), DefaultDim)
	}
	v := e.Embed("profiles of engineering candidates")
	var sum float64
	for _, x := range v {
		sum += x * x
	}
	if math.Abs(sum-1.0) > 1e-9 {
		t.Fatalf("embedding norm^2 = %v, want 1.0", sum)
	}
}

func TestEmbedEmptyIsZero(t *testing.T) {
	e := NewEmbedder(32)
	v := e.Embed("!!! ,,,")
	for i, x := range v {
		if x != 0 {
			t.Fatalf("empty-token embedding non-zero at %d: %v", i, x)
		}
	}
}

func TestSimilarTextsScoreHigher(t *testing.T) {
	e := NewEmbedder(256)
	q := e.Embed("match job seekers to data scientist positions")
	rel := e.Embed("job matcher agent: assess match quality between a job seeker profile and data scientist jobs")
	unrel := e.Embed("content moderation guardrail filtering offensive language")
	if Cosine(q, rel) <= Cosine(q, unrel) {
		t.Fatalf("related score %v <= unrelated score %v", Cosine(q, rel), Cosine(q, unrel))
	}
}

func TestEmbedWeighted(t *testing.T) {
	e := NewEmbedder(64)
	v := e.EmbedWeighted([]string{"job matching", "query history about matching"}, []float64{0.8, 0.2})
	var sum float64
	for _, x := range v {
		sum += x * x
	}
	if math.Abs(sum-1.0) > 1e-9 {
		t.Fatalf("weighted embedding norm^2 = %v, want 1", sum)
	}
	// Mismatched lengths yield zero vector.
	z := e.EmbedWeighted([]string{"a"}, []float64{1, 2})
	for _, x := range z {
		if x != 0 {
			t.Fatal("mismatched weights should produce zero vector")
		}
	}
}

func TestCosineEdgeCases(t *testing.T) {
	if got := Cosine(nil, nil); got != 0 {
		t.Fatalf("Cosine(nil,nil) = %v, want 0", got)
	}
	if got := Cosine([]float64{1, 0}, []float64{1}); got != 0 {
		t.Fatalf("mismatched lengths = %v, want 0", got)
	}
	if got := Cosine([]float64{0, 0}, []float64{1, 1}); got != 0 {
		t.Fatalf("zero vector = %v, want 0", got)
	}
	if got := Cosine([]float64{1, 2}, []float64{1, 2}); math.Abs(got-1) > 1e-12 {
		t.Fatalf("self similarity = %v, want 1", got)
	}
}

func TestCosineSymmetryProperty(t *testing.T) {
	f := func(a, b []float64) bool {
		n := len(a)
		if len(b) < n {
			n = len(b)
		}
		a, b = a[:n], b[:n]
		for i := 0; i < n; i++ {
			// Skip magnitudes whose squares overflow float64.
			if math.Abs(a[i]) > 1e150 || math.Abs(b[i]) > 1e150 {
				return true
			}
		}
		x, y := Cosine(a, b), Cosine(b, a)
		return math.Abs(x-y) < 1e-9 && x >= -1.0000001 && x <= 1.0000001
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestNormalizeProperty(t *testing.T) {
	f := func(v []float64) bool {
		// Filter out NaN/Inf inputs which quick can generate via extremes.
		var sum float64
		for _, x := range v {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				return true
			}
			sum += x * x
		}
		if math.IsInf(sum, 0) {
			return true
		}
		out := Normalize(append([]float64(nil), v...))
		var n float64
		for _, x := range out {
			n += x * x
		}
		if sum == 0 {
			return n == 0
		}
		return math.Abs(n-1) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestIndexUpsertSearch(t *testing.T) {
	e := NewEmbedder(128)
	ix := NewIndex(128)
	docs := map[string]string{
		"jobmatcher": "assess match quality between job seeker profile and jobs",
		"profiler":   "collect job seeker profile information via a UI form",
		"moderator":  "content moderation of generated text",
		"sqlexec":    "execute sql queries against relational databases",
	}
	for id, text := range docs {
		if err := ix.Upsert(id, e.Embed(text)); err != nil {
			t.Fatal(err)
		}
	}
	if n := len(ix.Search(e.Embed("anything"), 100)); n != 4 {
		t.Fatalf("indexed vectors = %d, want 4", n)
	}
	hits := ix.Search(e.Embed("assess match quality of job seeker profiles against jobs"), 2)
	if len(hits) != 2 {
		t.Fatalf("got %d hits, want 2", len(hits))
	}
	if hits[0].ID != "jobmatcher" {
		t.Fatalf("top hit = %q, want jobmatcher (hits=%v)", hits[0].ID, hits)
	}
}

func TestIndexUpsertReplaces(t *testing.T) {
	e := NewEmbedder(64)
	ix := NewIndex(64)
	if err := ix.Upsert("a", e.Embed("first text")); err != nil {
		t.Fatal(err)
	}
	if err := ix.Upsert("a", e.Embed("completely different replacement")); err != nil {
		t.Fatal(err)
	}
	hits := ix.Search(e.Embed("completely different replacement"), 10)
	if len(hits) != 1 {
		t.Fatalf("indexed vectors after replace = %d, want 1", len(hits))
	}
	if hits[0].Score < 0.99 {
		t.Fatalf("replaced vector not searchable: %v", hits)
	}
}

func TestIndexDelete(t *testing.T) {
	e := NewEmbedder(64)
	ix := NewIndex(64)
	for i := 0; i < 5; i++ {
		id := fmt.Sprintf("id%d", i)
		if err := ix.Upsert(id, e.Embed(id+" text body")); err != nil {
			t.Fatal(err)
		}
	}
	ix.Delete("id2")
	ix.Delete("missing") // no-op
	hits := ix.Search(e.Embed("id2 text body"), 10)
	if len(hits) != 4 {
		t.Fatalf("indexed vectors = %d, want 4", len(hits))
	}
	for _, h := range hits {
		if h.ID == "id2" {
			t.Fatal("deleted id still in results")
		}
	}
}

func TestIndexDimensionMismatch(t *testing.T) {
	ix := NewIndex(8)
	if err := ix.Upsert("x", make([]float64, 9)); err == nil {
		t.Fatal("expected dimension mismatch error")
	}
}

func TestIndexSearchEmptyAndZeroK(t *testing.T) {
	ix := NewIndex(8)
	if hits := ix.Search(make([]float64, 8), 3); hits != nil {
		t.Fatalf("empty index search = %v, want nil", hits)
	}
	_ = ix.Upsert("a", make([]float64, 8))
	if hits := ix.Search(make([]float64, 8), 0); hits != nil {
		t.Fatalf("k=0 search = %v, want nil", hits)
	}
}

// searchFullSort is the pre-top-k reference: score every vector into a
// fresh slice and sort all N. Kept in the test package as the oracle for
// TestSearchTopKMatchesFullSort and the baseline for BenchmarkSearchTopK.
func searchFullSort(ix *Index, query []float64, k int) []Hit {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	if k <= 0 || len(ix.ids) == 0 {
		return nil
	}
	hits := make([]Hit, 0, len(ix.ids))
	for i, id := range ix.ids {
		hits = append(hits, Hit{ID: id, Score: Cosine(query, ix.vecs[i])})
	}
	sortHits(hits)
	if k > len(hits) {
		k = len(hits)
	}
	return hits[:k]
}

// TestSearchTopKMatchesFullSort: the bounded-heap selection must return
// exactly the full-sort prefix for every k, including ties and k > N.
func TestSearchTopKMatchesFullSort(t *testing.T) {
	const dim = 16
	ix := NewIndex(dim)
	rng := func(seed int) float64 { return float64((seed*2654435761)%1000) / 1000 }
	for i := 0; i < 200; i++ {
		vec := make([]float64, dim)
		for j := range vec {
			vec[j] = rng(i*dim + j)
		}
		// Duplicate every 10th vector under a different id to force score
		// ties that exercise the id tie-break inside the heap.
		if i%10 == 0 && i > 0 {
			copy(vec, ix.vecs[ix.pos[fmt.Sprintf("v%03d", i-1)]])
		}
		if err := ix.Upsert(fmt.Sprintf("v%03d", i), vec); err != nil {
			t.Fatal(err)
		}
	}
	query := make([]float64, dim)
	for j := range query {
		query[j] = rng(9999 + j)
	}
	for _, k := range []int{1, 2, 3, 7, 10, 50, 199, 200, 500} {
		got := ix.Search(query, k)
		want := searchFullSort(ix, query, k)
		if len(got) != len(want) {
			t.Fatalf("k=%d: got %d hits, want %d", k, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("k=%d hit %d: got %+v, want %+v", k, i, got[i], want[i])
			}
		}
	}
}

func benchIndex(b *testing.B, n, dim int) (*Index, []float64) {
	b.Helper()
	ix := NewIndex(dim)
	for i := 0; i < n; i++ {
		vec := make([]float64, dim)
		for j := range vec {
			vec[j] = float64((i*dim+j*31)%997) / 997
		}
		if err := ix.Upsert(fmt.Sprintf("v%05d", i), vec); err != nil {
			b.Fatal(err)
		}
	}
	query := make([]float64, dim)
	for j := range query {
		query[j] = float64((j*17)%97) / 97
	}
	return ix, query
}

// BenchmarkSearchTopK measures the bounded-heap selection (allocates O(k)).
func BenchmarkSearchTopK(b *testing.B) {
	ix, query := benchIndex(b, 5000, 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if hits := ix.Search(query, 10); len(hits) != 10 {
			b.Fatalf("hits = %d", len(hits))
		}
	}
}

// BenchmarkSearchFullSort is the score-all-then-sort baseline the heap
// replaced (allocates O(N)); compare allocs/op against BenchmarkSearchTopK.
func BenchmarkSearchFullSort(b *testing.B) {
	ix, query := benchIndex(b, 5000, 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if hits := searchFullSort(ix, query, 10); len(hits) != 10 {
			b.Fatalf("hits = %d", len(hits))
		}
	}
}
