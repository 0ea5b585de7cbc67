// Package chunk holds Log, an append-only sequence whose storage grows in
// place. Values live in chunks that are never moved or copied once
// allocated: an append that finds the last chunk full allocates the next one
// and writes into it, so it costs one chunk, never a copy of what is already
// stored, and a pointer to a stored value stays valid for the life of the log.
//
// Chunk sizes follow position, not history, so any position is found in O(1):
//
//   - below 256 each power-of-two span [2^k, 2^(k+1)) is one chunk, so a log
//     doubles as an appended slice does (position 0 is a chunk of its own);
//   - from 256 to 2048 each such span is four chunks of a quarter of it, so
//     the room a log holds past its length is at most a quarter of the length
//     (an appended slice grows by a quarter of its capacity plus 192);
//   - from 2048 on every chunk holds 512 values.
//
// Averaged over lengths, a log therefore holds less spare room than an
// appended slice (with size-class rounding, ~9 % less up to 20 000 values of
// 160 bytes, chunk headers counted); at a given length either may hold more.
//
// Make merges the chunks below a power of two into one first chunk, for a
// log that will surely hold that many values.
//
// A log can let go of its oldest values: Release drops whole leading chunks
// and moves nothing, so positions, Len and the O(1) At stay what they were,
// and a pointer into a kept chunk stays valid. Start is the first position
// kept; reads below it are out of range. Skip moves the end of a log that
// keeps nothing forward, for a log rebuilt from a copy of what another one
// kept: its chunks then lie where the other's did. The chunk an Append
// opens in a log that keeps nothing (after a Skip, or a Release of every
// chunk) starts small and grows by copying up to its size, so a rebuilt log
// costs what it holds; only pointers into that chunk, and only until it is
// full, can go stale.
package chunk

import (
	"iter"
	"math/bits"
)

const (
	quarterFrom = 256  // from here a power-of-two span is four chunks
	fixedFrom   = 2048 // from here every chunk holds fixedSize values
	fixedSize   = 512
	maxFirst    = quarterFrom // the largest first chunk Make gives

	// The number of chunks, in the schedule whose first chunk holds one
	// value, below quarterFrom (position 0, then one per power-of-two span)
	// and below fixedFrom (four more per span).
	belowQuarter = 9
	belowFixed   = belowQuarter + 4*3
)

// Log is an append-only sequence of values stored in chunks that never move.
// The zero Log is empty and ready to use; its first chunk holds one value.
// A Log does no locking.
type Log[T any] struct {
	chunks [][]T // the kept chunks, oldest first; every one but the last is full
	n      int   // values appended
	start  int   // the first position kept, where chunks[0] begins
}

// Make returns an empty log whose first chunk, allocated now, holds first
// values, rounded up to a power of two and cut to at most 256.
func Make[T any](first int) Log[T] {
	first = 1 << bits.Len(uint(min(max(first, 1), maxFirst)-1))
	return Log[T]{chunks: [][]T{make([]T, 0, first)}}
}

// Len returns the number of values appended.
func (l *Log[T]) Len() int { return l.n }

// Start returns the first position the log keeps: the number of values
// released or skipped.
func (l *Log[T]) Start() int { return l.start }

// Append adds v at position Len.
func (l *Log[T]) Append(v T) {
	k := len(l.chunks) - 1
	if k < 0 || len(l.chunks[k]) == cap(l.chunks[k]) {
		k = l.grow()
	}
	l.chunks[k] = append(l.chunks[k], v)
	l.n++
}

// grow makes room at position Len and returns the chunk that has it: the
// next chunk of the schedule, or, for the chunk opened in a log that kept
// nothing, which begins at Start, a first 8 values or a copy twice as large,
// up to the end of the schedule's chunk.
func (l *Log[T]) grow() int {
	n := l.n
	if n == 0 {
		l.chunks = append(l.chunks, make([]T, 0, 1))
		return 0
	}
	_, s := chunkOf(n)
	size := chunkSize(s)
	if s <= l.start { // the chunk that begins at start
		room := s + size - l.start
		if len(l.chunks) == 0 {
			l.chunks = append(l.chunks, make([]T, 0, min(room, 8)))
		} else {
			c := make([]T, len(l.chunks[0]), min(room, 2*cap(l.chunks[0])))
			copy(c, l.chunks[0])
			l.chunks[0] = c
		}
		return 0
	}
	l.chunks = append(l.chunks, make([]T, 0, size))
	return len(l.chunks) - 1
}

// At returns a pointer to the value at position i, Start <= i < Len. It
// stays valid, and keeps pointing at position i, until i is released.
func (l *Log[T]) At(i int) *T {
	k, off := l.locate(i)
	return &l.chunks[k][off]
}

// Head returns the values of the first kept chunk, as a slice of the log's
// own storage: when that chunk is full, the values Release(Start+len(Head))
// lets go of. It is empty when the log keeps nothing.
func (l *Log[T]) Head() []T {
	if len(l.chunks) == 0 {
		return nil
	}
	return l.chunks[0]
}

// Release lets go of every leading chunk whose positions all lie below
// before: the chunk is dropped, and Start moves to the first position of
// the next one. A chunk that holds before, or any position past it, is
// kept whole, and so is the last chunk while it is not full. Nothing moves
// and nothing is allocated.
func (l *Log[T]) Release(before int) {
	d := 0
	for ; d < len(l.chunks); d++ {
		c := l.chunks[d]
		if len(c) < cap(c) || l.start+len(c) > before {
			break
		}
		l.start += len(c)
	}
	if d > 0 {
		n := copy(l.chunks, l.chunks[d:])
		clear(l.chunks[n:])
		l.chunks = l.chunks[:n]
	}
}

// Skip moves the end of a log that keeps nothing (Start == Len) to
// position to, as if values had been appended up to it and released: the
// next Append stores at to. It allocates nothing. A to at or below Len, or
// a log that keeps values, is left as it is.
func (l *Log[T]) Skip(to int) {
	if to <= l.n || l.start < l.n {
		return
	}
	l.chunks = l.chunks[:0]
	l.n, l.start = to, to
}

// Chunks yields the values at positions [from, to) in order, as slices of
// the log's own storage, one for each chunk the range touches. It requires
// Start <= from and to <= Len; an empty range yields nothing.
func (l *Log[T]) Chunks(from, to int) iter.Seq[[]T] {
	return func(yield func([]T) bool) {
		if from >= to {
			return
		}
		k, off := l.locate(from)
		for ; from < to; k, off = k+1, 0 {
			c := l.chunks[k][off:]
			c = c[:min(len(c), to-from)]
			if !yield(c) {
				return
			}
			from += len(c)
		}
	}
}

// locate returns the index in l.chunks of the chunk holding position i, and
// i's offset in it.
func (l *Log[T]) locate(i int) (k, off int) {
	if off := i - l.start; off < cap(l.chunks[0]) {
		return 0, off
	}
	k, s := chunkOf(i)
	if l.start == 0 {
		// The first chunk stands for the one-value schedule's chunks 0
		// through log2 of its size.
		return k - bits.TrailingZeros(uint(cap(l.chunks[0]))), i - s
	}
	base, _ := chunkOf(l.start) // chunks[0] is the schedule's chunk holding start
	return k - base, i - s
}

// chunkSize is the size of the chunk that starts at position n.
func chunkSize(n int) int {
	switch {
	case n == 0:
		return 1
	case n < quarterFrom:
		return n
	case n < fixedFrom:
		return 1 << (bits.Len(uint(n)) - 3)
	default:
		return fixedSize
	}
}

// chunkOf returns the number, in the schedule whose first chunk holds one
// value, of the chunk holding position i > 0, and the chunk's first position.
func chunkOf(i int) (k, start int) {
	switch {
	case i < quarterFrom: // chunk k holds [2^(k-1), 2^k)
		k = bits.Len(uint(i))
		return k, 1 << (k - 1)
	case i < fixedFrom: // four chunks to each [2^o, 2^(o+1))
		o := bits.Len(uint(i)) - 1
		q := i >> (o - 2) & 3
		return belowQuarter + 4*(o-8) + q, (4 + q) << (o - 2)
	default:
		j := (i - fixedFrom) / fixedSize
		return belowFixed + j, fixedFrom + j*fixedSize
	}
}
