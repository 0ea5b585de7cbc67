package obs

import (
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
		r := newRing[int](bound, 4)
		var model []int
		for op := 0; op < 400; op++ {
			switch n := rng.Intn(100); {
			case n < 95:
				r.push(op)
				model = append(model, op)
			default:
				bound = rng.Intn(200) - 1             // -1 and 0 bound to 1
				r = newRing[int](bound, rng.Intn(64)) // most bounds outgrow the first allocation

				model = nil
				bound = max(bound, 1)
			}
			want := model[len(model)-min(len(model), bound):]
			if r.len() != len(want) || r.bound != bound {
				t.Fatalf("seed %d op %d: len %d bound %d, want %d and %d", seed, op, r.len(), r.bound, len(want), bound)
			}
			if got := r.oldestFirst(0); !slices.Equal(got, want) {
				t.Fatalf("seed %d op %d: oldest first %v, want %v", seed, op, got, want)
			}
			from := rng.Intn(len(want) + 1)
			if got := r.oldestFirst(from); !slices.Equal(got, want[from:]) {
				t.Fatalf("seed %d op %d: oldest first from %d %v, want %v", seed, op, from, got, want[from:])
			}
			newest := slices.Clone(want)
			slices.Reverse(newest)
			if got := r.newestFirst(); !slices.Equal(got, newest) {
				t.Fatalf("seed %d op %d: newest first %v, want %v", seed, op, got, newest)
			}
			for i, w := range want {
				if r.at(i) != w {
					t.Fatalf("seed %d op %d: at(%d) = %d, want %d", seed, op, i, r.at(i), w)
				}
			}
		}
	}
}

// A full ring is written in place.
func TestRingPushDoesNotAllocateOnceFull(t *testing.T) {
	r := newRing[SpanData](256, 64)
	for i := 0; i < r.bound; i++ {
		r.push(SpanData{ID: uint64(i)})
	}
	if n := testing.AllocsPerRun(1000, func() { r.push(SpanData{}) }); n != 0 {
		t.Fatalf("a push into a full ring allocates %v times", n)
	}
}
