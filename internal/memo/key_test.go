package memo

import (
	"encoding/json"
	"math"
	"math/rand"
	"testing"
)

// jsonRoundTrip is m as it comes back from its JSON form: numbers become
// float64, and a string's invalid UTF-8 bytes become U+FFFD.
func jsonRoundTrip(t *testing.T, m map[string]any) map[string]any {
	t.Helper()
	js, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	var back map[string]any
	if err := json.Unmarshal(js, &back); err != nil {
		t.Fatal(err)
	}
	return back
}

// scalarPool holds values whose keys must sometimes collide: each has a
// JSON twin or a near miss in the pool.
var scalarPool = []any{
	nil, true, false, "", "3", "true", "a\xffb", "a\uFFFDb",
	3, int64(3), 3.0, 3.5, -7, float64(-7), int64(1 << 53), float64(1 << 53),
	1e20, 0.1,
}

// randomScalar draws a value JSON carries, over a wide range.
func randomScalar(r *rand.Rand) any {
	switch r.Intn(8) {
	case 0:
		return nil
	case 1:
		return r.Intn(2) == 0
	case 2:
		b := make([]byte, r.Intn(12))
		r.Read(b) // random bytes: often invalid UTF-8
		return string(b)
	case 3:
		return r.Int63n(1<<53) - 1<<52
	case 4:
		return int(r.Int63n(1<<53) - 1<<52)
	case 5:
		return float64(r.Int63n(1<<53) - 1<<52) // integral
	case 6:
		return r.NormFloat64() * math.Pow(10, float64(r.Intn(40)-20))
	default:
		return scalarPool[r.Intn(len(scalarPool))]
	}
}

// A key is a function of the inputs' JSON form: a map of scalars and its
// JSON round trip key alike, and over a pool of near misses two maps key
// alike exactly when their JSON forms are equal. Every key is the 32-byte
// sum, and what JSON cannot carry is refused.
func TestKeyIsJSONCanonical(t *testing.T) {
	r := rand.New(rand.NewSource(46))
	names := []string{"JOB_ID", "Q", "job_id", "x"}
	key := func(m map[string]any) Key {
		t.Helper()
		k := mustKey(t, "SUMMARIZER", 1, m)
		if len(k) != 32 {
			t.Fatalf("key of %v is %d bytes, want 32", m, len(k))
		}
		return k
	}

	for i := 0; i < 2000; i++ {
		m := map[string]any{}
		for n := r.Intn(12); n > 0; n-- {
			m[string(rune('a'+r.Intn(26)))+names[r.Intn(len(names))]] = randomScalar(r)
		}
		if a, b := key(m), key(jsonRoundTrip(t, m)); a != b {
			t.Fatalf("%#v and its JSON round trip key apart", m)
		}
	}

	type sample struct {
		m  map[string]any
		js string
		k  Key
	}
	var samples []sample
	for i := 0; i < 300; i++ {
		m := map[string]any{}
		for _, n := range names[:2] {
			if r.Intn(3) > 0 {
				m[n] = scalarPool[r.Intn(len(scalarPool))]
			}
		}
		js, err := json.Marshal(jsonRoundTrip(t, m)) // "a\xffb" and "a\uFFFDb" decode alike
		if err != nil {
			t.Fatal(err)
		}
		samples = append(samples, sample{m, string(js), key(m)})
	}
	for i, a := range samples {
		for _, b := range samples[:i] {
			if (a.k == b.k) != (a.js == b.js) {
				t.Fatalf("%#v and %#v: equal keys %v, equal JSON %v", a.m, b.m, a.k == b.k, a.js == b.js)
			}
		}
	}

	three := key(map[string]any{"JOB_ID": 3})
	for _, v := range []any{int64(3), 3.0} {
		if key(map[string]any{"JOB_ID": v}) != three {
			t.Fatalf("%T 3 and int 3 key apart", v)
		}
	}
	for _, pair := range [][2]map[string]any{
		{{"JOB_ID": 3}, {"JOB_ID": 3.5}},
		{{"JOB_ID": "3"}, {"JOB_ID": 3}},
		{{"JOB_ID": true}, {"JOB_ID": "true"}},
		{{"JOB_ID": 3, "Q": nil}, {"JOB_ID": 3}},
	} {
		if key(pair[0]) == key(pair[1]) {
			t.Fatalf("%#v and %#v key alike", pair[0], pair[1])
		}
	}
	for _, v := range []any{math.NaN(), math.Inf(1), math.Inf(-1), make(chan int)} {
		if k, err := ComputeKey("SUMMARIZER", 1, map[string]any{"JOB_ID": 3, "Q": v}); err == nil {
			t.Fatalf("%v keyed as %x, want an error", v, k)
		}
	}
}

// A key of one int input allocates only the key itself.
func TestComputeKeyAllocations(t *testing.T) {
	inputs := map[string]any{"JOB_ID": 17}
	if n := testing.AllocsPerRun(200, func() {
		if _, err := ComputeKey("SUMMARIZER", 1, inputs); err != nil {
			t.Fatal(err)
		}
	}); n > 1 {
		t.Fatalf("ComputeKey of one int allocates %v times, want at most 1", n)
	}
}
