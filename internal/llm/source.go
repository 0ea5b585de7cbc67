package llm

import "math/rand"

// lazySource is a rand.Source64 whose output is bit for bit that of
// rand.NewSource(seed), without building the seeded state. math/rand's source
// is an additive lagged Fibonacci generator over 607 words with a tap of 273:
// draw k adds slot tap = (606-k) mod 607 into slot feed = (333-k) mod 607 and
// returns the sum. Seeding fills all 607 words from a Park–Miller sequence,
// about 1 900 multiplications, and a model call makes one to four draws of two
// words each. So a word is computed from the seed when a draw first reads it,
// and a word an earlier draw wrote is read back from the draw log: the feed
// slot of draw k was last written by draw k-607, its tap slot by draw k-273.
type lazySource struct {
	seed int32    // the seed reduced as math/rand reduces it, in [1, 2³¹-2]
	n    int      // draws since Seed
	log  []int64  // outputs of the last min(n, 607) draws, draw k at k mod 607
	buf  [8]int64 // log's inline storage, enough for any model call
}

const (
	rngLen   = 607
	rngTap   = 273
	int32max = 1<<31 - 1
	parkA    = 48271 // math/rand's Park–Miller multiplier
)

// seedPow[i] is parkA^(21+3i) mod 2³¹-1: the first of the three Park–Miller
// steps that make word i of a seeded state follows 21+3i steps from the seed.
var seedPow [rngLen]uint64

// cooked is math/rand's rngCooked table. It is derived at init from the
// outputs of rand.NewSource(1), not copied: the first 607 draws of a source
// determine its seeded state, and the state less seed 1's Park–Miller part is
// the table.
var cooked [rngLen]int64

func init() {
	p := uint64(1)
	for i := 0; i < 21; i++ {
		p = p * parkA % int32max
	}
	for i := range seedPow {
		seedPow[i] = p
		p = p * parkA % int32max * parkA % int32max * parkA % int32max
	}

	// Invert the recurrence: draw k < 607 reads slot 333-k (or 940-k) before
	// any draw writes it, and slot 606-k either unwritten (k < 273) or as
	// draw k-273 left it.
	src := rand.NewSource(1).(rand.Source64)
	var out, v [rngLen]int64
	for k := range out {
		out[k] = int64(src.Uint64())
	}
	for k := rngTap; k <= 333; k++ {
		v[333-k] = out[k] - out[k-rngTap]
	}
	for k := 334; k < rngLen; k++ {
		v[940-k] = out[k] - out[k-rngTap]
	}
	for k := 0; k < rngTap; k++ {
		v[333-k] = out[k] - v[606-k]
	}
	for i := range cooked {
		cooked[i] = v[i] ^ parkMiller(1, i)
	}
}

// parkMiller is the Park–Miller part of word i of the state seeded with s.
func parkMiller(s int32, i int) int64 {
	x1 := uint64(s) * seedPow[i] % int32max
	x2 := x1 * parkA % int32max
	x3 := x2 * parkA % int32max
	return int64(x1<<40 ^ x2<<20 ^ x3)
}

// Seed reduces seed as math/rand does and forgets every draw.
func (s *lazySource) Seed(seed int64) {
	seed %= int32max
	if seed < 0 {
		seed += int32max
	}
	if seed == 0 {
		seed = 89482311
	}
	s.seed = int32(seed)
	s.n = 0
	s.log = s.buf[:0]
}

// word returns slot i of the seeded state.
func (s *lazySource) word(i int) int64 { return parkMiller(s.seed, i) ^ cooked[i] }

// Uint64 returns the next draw, as rand.NewSource(seed) would.
func (s *lazySource) Uint64() uint64 {
	k := s.n
	var feed, tap int64
	if k >= rngLen {
		feed = s.log[k%rngLen]
	} else {
		feed = s.word((333 - k + rngLen) % rngLen)
	}
	if k >= rngTap {
		tap = s.log[(k-rngTap)%rngLen]
	} else {
		tap = s.word(606 - k)
	}
	x := feed + tap
	if k < rngLen {
		s.log = append(s.log, x)
	} else {
		s.log[k%rngLen] = x
	}
	s.n++
	return uint64(x)
}

// Int63 returns the next draw's low 63 bits, as rand.NewSource(seed) would.
func (s *lazySource) Int63() int64 { return int64(s.Uint64() &^ (1 << 63)) }
