package obs

import (
	"slices"

	"blueprint/internal/chunk"
)

// ring is the one bounded buffer of the telemetry plane: it keeps the most
// recent bound values pushed and overwrites the oldest once full. EventLog,
// Recorder, each session's span trace and each SLO series hold one, under
// their own lock — a ring does no locking. Storage is a chunk.Log: it starts
// with one chunk of firstChunk values and grows by chunks, never copying,
// up to the bound, and is then written in place, so a push allocates nothing
// beyond that growth.
type ring[T any] struct {
	log   chunk.Log[T] // log.Len() <= bound; full when equal
	bound int
	next  int // once full: where the next push lands, i.e. the oldest value
}

// firstChunk is the room a new ring has: one ask's spans (~6–8), so a span
// ring made for a session, or made again after its eviction, costs that.
const firstChunk = 8

// newRing returns an empty ring bounded to bound values (at least 1).
func newRing[T any](bound int) ring[T] {
	bound = max(bound, 1)
	return ring[T]{log: chunk.Make[T](min(bound, firstChunk)), bound: bound}
}

// push adds v, overwriting the oldest value when the ring is full.
func (r *ring[T]) push(v T) {
	if r.log.Len() < r.bound {
		r.log.Append(v)
		return
	}
	*r.log.At(r.next) = v
	r.next = (r.next + 1) % r.bound
}

func (r *ring[T]) len() int { return r.log.Len() }

// at returns the i-th oldest retained value, 0 <= i < len.
func (r *ring[T]) at(i int) T { return *r.log.At((r.next + i) % r.bound) }

// oldestFirst copies the retained values from the from-th oldest on.
func (r *ring[T]) oldestFirst(from int) []T {
	n := r.log.Len()
	out := make([]T, 0, n-from)
	// In storage the oldest is at next: [next, n) then [0, next).
	p := r.next + from
	if p >= n {
		return r.appendRange(out, p-n, r.next)
	}
	out = r.appendRange(out, p, n)
	return r.appendRange(out, 0, r.next)
}

// newestFirst copies the retained values, most recent first.
func (r *ring[T]) newestFirst() []T {
	out := r.oldestFirst(0)
	slices.Reverse(out)
	return out
}

// appendRange appends the values stored at [from, to) to out.
func (r *ring[T]) appendRange(out []T, from, to int) []T {
	for c := range r.log.Chunks(from, to) {
		out = append(out, c...)
	}
	return out
}
