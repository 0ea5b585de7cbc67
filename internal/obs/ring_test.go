package obs

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// The ring against a model: a plain slice that keeps every push since the
// last re-bound. The ring must hold that slice's last `bound` values, in
// both read orders, whatever the interleaving of pushes and re-bounds.
func TestRingMatchesSliceModel(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		bound := 1 + rng.Intn(8)
		r := newRing[int](bound)
		var model []int
		for op := 0; op < 400; op++ {
			switch n := rng.Intn(100); {
			case n < 95:
				r.push(op)
				model = append(model, op)
			default:
				bound = rng.Intn(200) - 1 // -1 and 0 bound to 1; most outgrow the first chunk
				r = newRing[int](bound)
				model = nil
				bound = max(bound, 1)
			}
			checkRing(t, fmt.Sprintf("seed %d op %d", seed, op), &r, model, bound, rng.Intn(len(model)+1))
		}
	}
	// Bounds at and around the first chunk and a span ring's, each pushed
	// past two wraps: every chunk edge of the storage is crossed while
	// filling, and every slot is overwritten twice.
	for _, bound := range []int{1, 2, 3, firstChunk - 1, firstChunk, firstChunk + 1, 64, 300, ringCapacity} {
		r := newRing[int](bound)
		var model []int
		for i := 0; i <= 2*bound+1; i++ {
			checkRing(t, fmt.Sprintf("bound %d after %d pushes", bound, i), &r, model, bound, i%(min(i, bound)+1))
			r.push(i)
			model = append(model, i)
		}
	}
}

// checkRing compares r with the last bound values of model: its length,
// every index, both copying reads, and the oldest-first read from from.
func checkRing(t *testing.T, at string, r *ring[int], model []int, bound, from int) {
	t.Helper()
	want := model[len(model)-min(len(model), bound):]
	if r.len() != len(want) || r.bound != bound {
		t.Fatalf("%s: len %d bound %d, want %d and %d", at, r.len(), r.bound, len(want), bound)
	}
	if got := r.oldestFirst(0); !slices.Equal(got, want) {
		t.Fatalf("%s: oldest first %v, want %v", at, got, want)
	}
	from = min(from, len(want))
	if got := r.oldestFirst(from); !slices.Equal(got, want[from:]) {
		t.Fatalf("%s: oldest first from %d %v, want %v", at, from, got, want[from:])
	}
	newest := slices.Clone(want)
	slices.Reverse(newest)
	if got := r.newestFirst(); !slices.Equal(got, newest) {
		t.Fatalf("%s: newest first %v, want %v", at, got, newest)
	}
	for i, w := range want {
		if r.at(i) != w {
			t.Fatalf("%s: at(%d) = %d, want %d", at, i, r.at(i), w)
		}
	}
}

// A full ring is written in place.
func TestRingPushDoesNotAllocateOnceFull(t *testing.T) {
	r := newRing[SpanData](256)
	for i := 0; i < r.bound; i++ {
		r.push(SpanData{ID: uint64(i)})
	}
	if n := testing.AllocsPerRun(1000, func() { r.push(SpanData{}) }); n != 0 {
		t.Fatalf("a push into a full ring allocates %v times", n)
	}
}
