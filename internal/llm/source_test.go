package llm

import (
	"math"
	"math/rand"
	"testing"
)

// lazySourceSeeds are the seeds TestLazySourceMatchesMathRand checks: every
// reduction case of math/rand's Seed (0, negatives, 2³¹-1 and its multiples,
// which reduce to 0, the int64 extremes) and a spread of hashes.
func lazySourceSeeds() []int64 {
	seeds := []int64{
		0, 1, -1, 2, int32max - 1, int32max, -int32max, 2 * int32max, -3 * int32max,
		int32max + 1, 89482311, math.MinInt64, math.MaxInt64, math.MinInt64 + 1,
	}
	h := uint64(fnvOffset)
	for len(seeds) < 220 {
		h = (h ^ uint64(len(seeds))) * fnvPrime
		seeds = append(seeds, int64(h))
	}
	return seeds
}

// checkLazySource compares n draws of lazySource with math/rand's own source
// for one seed, both reseeding a used source and through rand.Rand's Float64
// and Intn, the draws the model's heads make.
func checkLazySource(t *testing.T, seed int64, n int) {
	t.Helper()
	want := rand.NewSource(seed).(rand.Source64)
	got := new(lazySource)
	got.Seed(seed + 1)
	got.Uint64() // a used source must forget what it drew
	got.Seed(seed)
	for k := 0; k < n; k++ {
		if g, w := got.Uint64(), want.Uint64(); g != w {
			t.Fatalf("seed %d draw %d: Uint64 %#x, want %#x", seed, k, g, w)
		}
	}
	wantRand, gotRand := rand.New(rand.NewSource(seed)), rand.New(new(lazySource))
	gotRand.Seed(seed)
	for k := 0; k < n/4; k++ {
		if g, w := gotRand.Float64(), wantRand.Float64(); g != w {
			t.Fatalf("seed %d call %d: Float64 %v, want %v", seed, k, g, w)
		}
		if g, w := gotRand.Intn(4), wantRand.Intn(4); g != w {
			t.Fatalf("seed %d call %d: Intn(4) %d, want %d", seed, k, g, w)
		}
		if g, w := gotRand.Intn(7), wantRand.Intn(7); g != w {
			t.Fatalf("seed %d call %d: Intn(7) %d, want %d", seed, k, g, w)
		}
		if g, w := gotRand.Int63(), wantRand.Int63(); g != w {
			t.Fatalf("seed %d call %d: Int63 %d, want %d", seed, k, g, w)
		}
	}
}

// TestLazySourceMatchesMathRand pins lazySource to math/rand draw for draw,
// 2 000 draws a seed: past the 273rd (the first tap read from the draw log),
// the 334th (the first feed slot past the wrap) and the 607th (the first feed
// read from the log, which from then on is a ring).
func TestLazySourceMatchesMathRand(t *testing.T) {
	for _, seed := range lazySourceSeeds() {
		checkLazySource(t, seed, 2000)
	}
}

func FuzzLazySource(f *testing.F) {
	for _, seed := range lazySourceSeeds()[:16] {
		f.Add(seed, uint16(700))
	}
	f.Fuzz(func(t *testing.T, seed int64, draws uint16) {
		checkLazySource(t, seed, int(draws%4097))
	})
}

// TestLazySourceDrawsWithoutAllocating: a pooled source reseeded and drawn
// as a model call draws allocates nothing.
func TestLazySourceDrawsWithoutAllocating(t *testing.T) {
	r := rand.New(new(lazySource))
	allocs := testing.AllocsPerRun(100, func() {
		r.Seed(12345)
		r.Float64()
		r.Intn(7)
		r.Float64()
	})
	if allocs != 0 {
		t.Fatalf("%v allocations a seed and three draws, want 0", allocs)
	}
}
