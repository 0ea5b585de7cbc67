package streams

import (
	"bytes"
	"reflect"
	"runtime"
	"strconv"
	"testing"

	"blueprint/internal/durability"
)

// FuzzStreamRecord hands the record decoder arbitrary bytes as one log
// record (Apply on a fresh store) and as a snapshot section (Restore on
// another): neither panics, and neither allocates more than the input can
// hold — a count that claims more elements than bytes remain is an error,
// not a make. The same bytes also build a stream and a message whose
// records round-trip both ways: decode(encode(m)) == m, but for its Ask,
// which is not logged and decodes as 0, and encode(decode(b)) == b.
func FuzzStreamRecord(f *testing.F) {
	s := NewStore()
	if _, err := s.CreateStream("conv", StreamInfo{Session: "session:1", Tags: []string{"conversation"}, Creator: "ui"}); err != nil {
		f.Fatal(err)
	}
	var seeds [][]byte
	for i := 0; i < 3; i++ {
		m, err := s.Append(shapedMessage("conv", "user", i))
		if err != nil {
			f.Fatal(err)
		}
		rec, err := appendMessageRecord(nil, &m)
		if err != nil {
			f.Fatal(err)
		}
		seeds = append(seeds, rec)
	}
	info, _ := s.Info("conv")
	seeds = append(seeds, durability.AppendUvarint(appendCreateHead(nil, &info), uint64(info.CreatedTS)))
	var snap bytes.Buffer
	if err := s.Snapshot(&snap); err != nil {
		f.Fatal(err)
	}
	seeds = append(seeds, snap.Bytes())
	// A create record whose tag count claims 2^62 tags.
	huge := durability.AppendUvarint(durability.AppendString(durability.AppendString([]byte{recCreate}, "conv"), ""), 1<<62)
	if err := NewStore().Apply(huge); err == nil {
		f.Fatal("a record claiming 2^62 tags was applied")
	}
	seeds = append(seeds, huge, nil, []byte(`{"t":"create","stream":{"id":"chat"}}`))
	for _, seed := range seeds {
		f.Add(seed)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		allocBounded(t, data, func() { _ = NewStore().Apply(data) })
		allocBounded(t, data, func() { _ = NewStore().Restore(bytes.NewReader(data)) })

		info, m := fuzzRecordValues(t, data)
		create := durability.AppendUvarint(appendCreateHead(nil, &info), uint64(info.CreatedTS))
		if r, err := decodeRecord(create); err != nil || r.typ != recCreate || !reflect.DeepEqual(r.info, info) {
			t.Fatalf("create record of %+v decodes as %+v (%v)", info, r.info, err)
		}
		rec, err := appendMessageRecord(nil, &m)
		if err != nil {
			t.Fatal(err)
		}
		r, err := decodeRecord(rec)
		want := m
		want.Ask = 0
		if err != nil || r.typ != recAppend || !reflect.DeepEqual(r.msg, want) {
			t.Fatalf("append record of\n%+v\ndecodes as\n%+v (%v)", m, r.msg, err)
		}
		again, err := appendMessageRecord(nil, &r.msg)
		if err != nil || !bytes.Equal(again, rec) {
			t.Fatalf("record %q re-encodes as %q (%v)", rec, again, err)
		}
	})
}

// allocBounded runs fn and fails if it allocated more than a fixed allowance
// plus a multiple of the input: what decoding a record may cost.
func allocBounded(t *testing.T, input []byte, fn func()) {
	t.Helper()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(64<<10+256*len(input)); got > limit {
		t.Fatalf("decoding %d bytes allocated %d bytes (limit %d)", len(input), got, limit)
	}
}

// fuzzRecordValues builds a stream and a message from fuzz bytes: strings
// are the input's NUL-separated fields (any bytes, valid UTF-8 or not), the
// numbers a hash of it, and the payload and directive shapes chosen by it.
// A JSON payload or Args is what encoding/json makes of it, as recovery
// returns it.
func fuzzRecordValues(t *testing.T, data []byte) (StreamInfo, Message) {
	fields := bytes.Split(data, []byte{0})
	field := func(i int) string {
		if i < len(fields) {
			return string(fields[i])
		}
		return ""
	}
	var tags []string
	for i := 5; i < len(fields) && i < 8; i++ {
		tags = append(tags, string(fields[i]))
	}
	h := uint64(len(data))
	for _, c := range data {
		h = h*131 + uint64(c)
	}
	info := StreamInfo{ID: field(0), Session: field(1), Tags: tags, Creator: field(2), CreatedTS: int64(h >> 1)}
	m := Message{
		ID:      "m" + strconv.FormatInt(int64(h>>2), 10),
		Stream:  field(0),
		Seq:     int64(h >> 3),
		TS:      int64(h >> 4),
		Kind:    Kind(int8(h)),
		Tags:    tags,
		Sender:  field(3),
		Session: field(1),
		Param:   field(4),
		Ask:     h | 1,
	}
	switch h % 3 {
	case 1:
		m.Payload = field(8)
	case 2:
		m.Payload = jsonRoundTrip(t, map[string]any{"rows": []any{field(8), len(data)}, "sql": field(9)})
	}
	if h%4 >= 2 {
		m.Directive = &Directive{Op: field(6), Agent: field(7)}
		if h%4 == 3 {
			m.Directive.Args = jsonRoundTrip(t, map[string]any{"input": field(9)}).(map[string]any)
		}
	}
	return info, m
}
