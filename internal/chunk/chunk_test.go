package chunk

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// The log against a plain slice, for every first chunk Make gives and the
// zero Log, at every length to past the first fixed-size chunks: Len, At
// and Chunks over ranges that start and end at and around every chunk edge.
func TestLogMatchesSlice(t *testing.T) {
	const n = fixedFrom + 3*fixedSize + 7
	for _, first := range []int{0, 1, 2, 3, 8, 100, 256, 1000} {
		l := Make[int](first)
		if first == 0 {
			l = Log[int]{}
		}
		var model []int
		edges := []int{0} // positions where a chunk starts
		for i := 0; i < n; i++ {
			chunks := len(l.chunks)
			l.Append(i)
			if i > 0 && len(l.chunks) > chunks {
				edges = append(edges, i)
			}
			model = append(model, i)
			if l.Len() != len(model) {
				t.Fatalf("first %d: Len %d after %d appends", first, l.Len(), len(model))
			}
		}
		for i, want := range model {
			if got := *l.At(i); got != want {
				t.Fatalf("first %d: At(%d) = %d", first, i, got)
			}
		}
		var around []int
		for _, e := range append(edges, n) {
			for _, p := range []int{e - 1, e, e + 1} {
				if p >= 0 && p <= n {
					around = append(around, p)
				}
			}
		}
		for _, from := range around {
			for _, to := range around {
				if to < from || to-from > 3*fixedSize {
					continue
				}
				var got []int
				for c := range l.Chunks(from, to) {
					if len(c) == 0 {
						t.Fatalf("first %d: Chunks(%d, %d) yielded an empty slice", first, from, to)
					}
					got = append(got, c...)
				}
				if !slices.Equal(got, model[from:to]) {
					t.Fatalf("first %d: Chunks(%d, %d) = %d values, want %d", first, from, to, len(got), to-from)
				}
			}
		}
	}
}

// What is stored never moves: a pointer taken at a position still points at
// it, holding its value, after the log has grown by many chunks.
func TestStoredValuesNeverMove(t *testing.T) {
	var l Log[int]
	var ptrs []*int
	for i := 0; i < 5000; i++ {
		l.Append(i)
		ptrs = append(ptrs, l.At(i))
	}
	for i, p := range ptrs {
		if p != l.At(i) || *p != i {
			t.Fatalf("position %d moved or changed: %p holds %d, At gives %p", i, p, *p, l.At(i))
		}
	}
}

// The room a log holds past its length: below 256 it doubles as an appended
// slice does; from 256 it is under a quarter of the length.
func TestRoomPastLength(t *testing.T) {
	var l Log[byte]
	for n := 1; n <= 20000; n++ {
		l.Append(0)
		room := -n
		for _, c := range l.chunks {
			room += cap(c)
		}
		limit := n - 1 // doubling: at most the length before the last growth
		if n > quarterFrom {
			limit = n / 4
		}
		if room > limit {
			t.Fatalf("length %d holds room for %d more, want <= %d", n, room, limit)
		}
	}
}

// Chunks stops when the loop does.
func TestChunksStopsEarly(t *testing.T) {
	var l Log[int]
	for i := 0; i < 100; i++ {
		l.Append(i)
	}
	seen := 0
	for c := range l.Chunks(0, l.Len()) {
		seen++
		if c[0] >= 8 {
			break
		}
	}
	if seen != 5 { // [0], [1], [2 3], [4..8), [8..16)
		t.Fatalf("the loop saw %d chunks, want 5", seen)
	}
}

func ExampleLog() {
	var l Log[string]
	for _, s := range []string{"a", "b", "c", "d", "e"} {
		l.Append(s)
	}
	*l.At(0) = "A"
	for c := range l.Chunks(0, l.Len()) {
		fmt.Println(c)
	}
	// Output:
	// [A]
	// [b]
	// [c d]
	// [e]
}

// edges returns, in order, the positions up to n at which a chunk starts, in
// the schedule of a log whose first chunk holds first values (the zero Log:
// 1), as the package doc states it: doubling below 256, four chunks a
// power-of-two span below 2048, then 512 values a chunk.
func edges(first, n int) []int {
	out := []int{0}
	for e := max(first, 1); e <= n; {
		out = append(out, e)
		switch {
		case e < quarterFrom:
			e *= 2
		case e < fixedFrom:
			span := 1
			for span*2 <= e {
				span *= 2
			}
			e += span / 4
		default:
			e += fixedSize
		}
	}
	return out
}

// Release against a slice model, under random appends and releases, for the
// zero Log and three first chunks, over lengths that cross the 256 and 2048
// edges of the schedule: Len, Start, At and Chunks agree with the model; a
// release drops exactly the full chunks wholly below it, so one that falls
// inside a chunk keeps that chunk; a pointer At gave into a kept chunk still
// points at its value (but for the chunk opened after a release of every
// chunk, which may move until it is full); and a release allocates nothing.
func TestReleaseMatchesModel(t *testing.T) {
	const n = fixedFrom + 3*fixedSize + 9
	for _, first := range []int{0, 1, 8, 256} {
		for seed := int64(1); seed <= 4; seed++ {
			rng := rand.New(rand.NewSource(seed))
			l := Make[int](first)
			if first == 0 {
				l = Log[int]{}
			}
			cuts := edges(first, n)
			model, start := []int(nil), 0
			ptrs := map[int]*int{}
			movesBelow := 0 // the end of a chunk opened in an empty log
			check := func(at string) {
				t.Helper()
				if l.Len() != len(model) || l.Start() != start {
					t.Fatalf("first %d seed %d %s: Len %d Start %d, want %d and %d", first, seed, at, l.Len(), l.Start(), len(model), start)
				}
				for i := start; i < len(model); i++ {
					if *l.At(i) != model[i] {
						t.Fatalf("first %d seed %d %s: At(%d) = %d, want %d", first, seed, at, i, *l.At(i), model[i])
					}
				}
				var got []int
				for c := range l.Chunks(start, len(model)) {
					got = append(got, c...)
				}
				if !slices.Equal(got, model[start:]) {
					t.Fatalf("first %d seed %d %s: Chunks from Start holds %d values, want %d", first, seed, at, len(got), len(model)-start)
				}
				if h := l.Head(); len(model) > start && (len(h) == 0 || h[0] != model[start]) {
					t.Fatalf("first %d seed %d %s: Head %v does not start at %d", first, seed, at, h, model[start])
				}
				for i, p := range ptrs {
					if i < start {
						delete(ptrs, i)
					} else if p != l.At(i) || *p != model[i] {
						t.Fatalf("first %d seed %d %s: the pointer to %d moved", first, seed, at, i)
					}
				}
			}
			release := func(before int) {
				t.Helper()
				allocs := testing.AllocsPerRun(1, func() { l.Release(before) })
				for _, e := range cuts { // the last edge at or below both before and the length
					if e > before || e > len(model) {
						break
					}
					start = max(start, e)
				}
				if allocs != 0 {
					t.Fatalf("first %d seed %d: Release(%d) allocated", first, seed, before)
				}
				if start == len(model) {
					movesBelow = cuts[slices.Index(cuts, start)+1]
				}
				check(fmt.Sprintf("after Release(%d) at length %d", before, len(model)))
			}
			for len(model) < n {
				for k := rng.Intn(300); k > 0 && len(model) < n; k-- {
					v := rng.Int()
					l.Append(v)
					model = append(model, v)
					if rng.Intn(50) == 0 && len(model) > movesBelow {
						ptrs[len(model)-1] = l.At(len(model) - 1)
					}
				}
				check(fmt.Sprintf("at length %d", len(model)))
				// A release at, beside or between edges, or anywhere up to
				// past the end.
				e := cuts[rng.Intn(len(cuts))]
				for _, before := range []int{e - 1, e, e + 1, start + rng.Intn(len(model)-start+2)} {
					release(before)
				}
			}
			release(n) // everything but the last, partly filled, chunk
			if l.Start() != cuts[len(cuts)-1] {
				t.Fatalf("first %d seed %d: Release(Len) keeps from %d, want the last chunk's start %d", first, seed, l.Start(), cuts[len(cuts)-1])
			}
		}
	}
}

// A log rebuilt from another's kept values: Skip to any position, at and
// around the 256 and 2048 edges too, then appends read back from there, and
// Release drops the chunk that the skip entered part way once it is full.
func TestSkipThenAppend(t *testing.T) {
	for _, to := range []int{1, 5, 255, 256, 257, 300, 2047, 2048, 2049, 2600, 5000} {
		var l Log[int]
		if allocs := testing.AllocsPerRun(1, func() { l.Skip(to) }); allocs != 0 {
			t.Fatalf("Skip(%d) allocated", to)
		}
		if l.Len() != to || l.Start() != to || len(l.Head()) != 0 {
			t.Fatalf("Skip(%d): Len %d Start %d Head %d values", to, l.Len(), l.Start(), len(l.Head()))
		}
		l.Append(to)
		if c := l.Head(); cap(c) > 8 {
			t.Fatalf("Skip(%d): the first Append opened room for %d values, want at most 8", to, cap(c))
		}
		for i := to + 1; i < to+1500; i++ {
			l.Append(i)
		}
		for i := to; i < l.Len(); i++ {
			if *l.At(i) != i {
				t.Fatalf("Skip(%d): At(%d) = %d", to, i, *l.At(i))
			}
		}
		var got []int
		for c := range l.Chunks(to, l.Len()) {
			got = append(got, c...)
		}
		if len(got) != 1500 || got[0] != to || got[1499] != to+1499 {
			t.Fatalf("Skip(%d): Chunks read %d values", to, len(got))
		}
		head := len(l.Head())
		l.Release(to + head)
		if l.Start() != to+head || *l.At(l.Start()) != to+head {
			t.Fatalf("Skip(%d): Release past the head keeps from %d, want %d", to, l.Start(), to+head)
		}
		l.Skip(to + 5000) // the log keeps values: no-op
		if l.Len() != to+1500 {
			t.Fatalf("Skip on a log that keeps values moved its end to %d", l.Len())
		}
	}
}
