package vectors

import (
	"fmt"
	"sort"
	"sync"

	"blueprint/internal/topk"
)

// Hit is a single vector-search result.
type Hit struct {
	ID    string
	Score float64
}

// Index is a thread-safe vector index supporting exact (flat) k-NN search.
// Registry sizes in the blueprint (hundreds to low tens of thousands of
// agents/sources) are comfortably served by exact search.
type Index struct {
	mu   sync.RWMutex
	dim  int
	ids  []string
	vecs [][]float64
	pos  map[string]int
}

// NewIndex returns an empty index for vectors of the given dimension.
func NewIndex(dim int) *Index {
	if dim <= 0 {
		dim = DefaultDim
	}
	return &Index{dim: dim, pos: make(map[string]int)}
}

// Upsert adds or replaces the vector stored under id.
func (ix *Index) Upsert(id string, vec []float64) error {
	if len(vec) != ix.dim {
		return fmt.Errorf("vectors: dimension mismatch: got %d, want %d", len(vec), ix.dim)
	}
	cp := make([]float64, len(vec))
	copy(cp, vec)
	ix.mu.Lock()
	defer ix.mu.Unlock()
	if p, ok := ix.pos[id]; ok {
		ix.vecs[p] = cp
		return nil
	}
	ix.pos[id] = len(ix.ids)
	ix.ids = append(ix.ids, id)
	ix.vecs = append(ix.vecs, cp)
	return nil
}

// Delete removes id from the index. Deleting an absent id is a no-op.
func (ix *Index) Delete(id string) {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	p, ok := ix.pos[id]
	if !ok {
		return
	}
	last := len(ix.ids) - 1
	ix.ids[p] = ix.ids[last]
	ix.vecs[p] = ix.vecs[last]
	ix.pos[ix.ids[p]] = p
	ix.ids = ix.ids[:last]
	ix.vecs = ix.vecs[:last]
	delete(ix.pos, id)
}

// hitBefore reports whether a ranks before b in result order: higher
// score first, ties broken by ascending id for determinism.
func hitBefore(a, b Hit) bool {
	if a.Score != b.Score {
		return a.Score > b.Score
	}
	return a.ID < b.ID
}

// Search returns the k nearest vectors to query by cosine similarity,
// sorted by descending score with ties broken by id for determinism.
//
// Selection is a bounded heap of size k (internal/topk) rather than
// scoring all N vectors into a fresh slice and sorting it: the scan keeps
// only the k best hits seen so far, so a search allocates O(k) instead of
// O(N) and the final sort is over k elements. For k >= N the heap
// degenerates into the full set and the behaviour is identical.
func (ix *Index) Search(query []float64, k int) []Hit {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	if k <= 0 || len(ix.ids) == 0 {
		return nil
	}
	if k > len(ix.ids) {
		k = len(ix.ids)
	}
	heap := topk.New(k, hitBefore)
	for i, id := range ix.ids {
		heap.Offer(Hit{ID: id, Score: Cosine(query, ix.vecs[i])})
	}
	hits := heap.Items()
	sortHits(hits)
	return hits
}

func sortHits(hits []Hit) {
	sort.Slice(hits, func(i, j int) bool { return hitBefore(hits[i], hits[j]) })
}
