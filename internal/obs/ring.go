package obs

// ring is the one bounded buffer of the telemetry plane: it keeps the most
// recent bound values pushed and overwrites the oldest once full. EventLog,
// Recorder, each session's span trace and each SLO series hold one, under
// their own lock — a ring does no locking. Storage grows by append from the
// holder's first allocation up to the bound and is then reused in place, so
// a push allocates nothing beyond that growth.
type ring[T any] struct {
	buf   []T // len(buf) <= bound; full when equal
	bound int
	next  int // once full: where the next push lands, i.e. the oldest value
}

// newRing returns an empty ring bounded to bound values (at least 1), with
// room for the first room of them allocated now: the whole bound for a ring
// that exists once and fills, a fraction for one of many that mostly do not.
func newRing[T any](bound, room int) ring[T] {
	bound = max(bound, 1)
	return ring[T]{buf: make([]T, 0, min(bound, room)), bound: bound}
}

// push adds v, overwriting the oldest value when the ring is full.
func (r *ring[T]) push(v T) {
	if len(r.buf) < r.bound {
		r.buf = append(r.buf, v)
		return
	}
	r.buf[r.next] = v
	r.next = (r.next + 1) % r.bound
}

func (r *ring[T]) len() int { return len(r.buf) }

// at returns the i-th oldest retained value, 0 <= i < len.
func (r *ring[T]) at(i int) T { return r.buf[(r.next+i)%r.bound] }

// oldestFirst copies the retained values from the from-th oldest on.
func (r *ring[T]) oldestFirst(from int) []T {
	out := make([]T, 0, len(r.buf)-from)
	for i := from; i < len(r.buf); i++ {
		out = append(out, r.at(i))
	}
	return out
}

// newestFirst copies the retained values, most recent first.
func (r *ring[T]) newestFirst() []T {
	out := make([]T, 0, len(r.buf))
	for i := len(r.buf) - 1; i >= 0; i-- {
		out = append(out, r.at(i))
	}
	return out
}

// reset drops the retained values and keeps the bound and the storage.
func (r *ring[T]) reset() {
	clear(r.buf) // release what the dropped values point to
	r.buf = r.buf[:0]
	r.next = 0
}
