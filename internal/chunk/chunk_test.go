package chunk

import (
	"fmt"
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
