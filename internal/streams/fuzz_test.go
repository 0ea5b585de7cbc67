package streams

import (
	"bytes"
	"reflect"
	"runtime"
	"testing"
	"time"

	"blueprint/internal/durability"
	"blueprint/internal/obs"
)

// FuzzStreamRecord hands the record decoder arbitrary bytes as one log
// record (Apply on a fresh store) and as a snapshot section (Restore on
// another): neither panics, and neither allocates more than the input can
// hold — a count that claims more elements than bytes remain is an error,
// not a make. The same bytes also build a stream and a message whose
// records round-trip both ways: decode(encode(m)) == m, but for its Ask,
// which is not logged and decodes as 0, and encode(decode(b)) == b; the
// append record an older log holds for m decodes as m too; and a drop
// record of the stream's session decodes to that scope.
//
// Seeds hold both message record types, and TypedSeeds: messages holding
// values of types that packages importing this one register with
// durability's value codec, which an external test file
// (typed_seeds_test.go) fills in.
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
		body := rec[len(appendHeader(nil, m.Seq, m.TS)):]
		seeds = append(seeds, rec, legacyAppendRecord(m.Seq, m.TS, int64(i+1), "session:1:other", body))
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
	// One record of each directive op.
	if _, err := s.CreateStream("ctl", StreamInfo{Session: "session:1"}); err != nil {
		f.Fatal(err)
	}
	ops := directiveOfEachOp()
	for i := range ops {
		m, err := s.Append(Message{Stream: "ctl", Kind: Control, Sender: "coordinator", Directive: &ops[i]})
		if err != nil {
			f.Fatal(err)
		}
		rec, err := appendMessageRecord(nil, &m)
		if err != nil {
			f.Fatal(err)
		}
		seeds = append(seeds, rec)
	}
	// Drop records, of a scope and of a nested one; then one with a byte after
	// it and one whose scope is cut short, which the decoder refuses.
	drop := appendDrop(nil, "session:1")
	seeds = append(seeds, drop, appendDrop(nil, "session:1:profile"))
	for _, bad := range [][]byte{append(bytes.Clone(drop), 0), drop[:len(drop)-1]} {
		if _, err := decodeRecord(bad); err == nil {
			f.Fatalf("drop record %q decoded", bad)
		}
		seeds = append(seeds, bad)
	}
	// A snapshot of a stream that let go of its oldest messages: its create
	// record, a release record, the messages it keeps.
	asks := NewStore()
	if _, err := asks.CreateStream("s:user", StreamInfo{Session: "s", Tags: []string{TagAsks}}); err != nil {
		f.Fatal(err)
	}
	for i := 0; i < obs.KeptAsks+2; i++ {
		if _, err := asks.Append(Message{Stream: "s:user", Payload: "ask"}); err != nil {
			f.Fatal(err)
		}
	}
	snap.Reset()
	if err := asks.Snapshot(&snap); err != nil {
		f.Fatal(err)
	}
	seeds = append(seeds, bytes.Clone(snap.Bytes()))
	// Messages whose values are registered types, each recovering as itself.
	if len(TypedSeeds) == 0 {
		f.Fatal("no typed seeds: typed_seeds_test.go did not run")
	}
	for _, m := range TypedSeeds {
		m.Stream = "ctl"
		m, err := s.Append(m)
		if err != nil {
			f.Fatal(err)
		}
		rec, err := appendMessageRecord(nil, &m)
		if err != nil {
			f.Fatal(err)
		}
		m.Session = "" // not in the record: replay takes the stream's
		if r, err := decodeRecord(rec); err != nil || !reflect.DeepEqual(r.msg, m) {
			f.Fatalf("a typed message recovers as\n%#v (%v)\nwant\n%#v", r.msg, err, m)
		}
		seeds = append(seeds, rec)
	}
	// A message record and a directive record as logs held them before a
	// message lost its Param and a directive its ReplyStream and Reason.
	older := Message{Stream: "ctl", Seq: 9, TS: 40, Kind: Control, Tags: []string{"PLAN", "plan"}, Sender: "coordinator", Directive: &ops[0]}
	seeds = append(seeds, olderMessageRecord(f, &older, "PLAN", "session:1:SQLEXECUTOR:out", "budget: cost 0.31 over limit 0.30"))
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
		if r, err := decodeRecord(appendDrop(nil, info.Session)); err != nil || r.typ != recDrop || r.scope != info.Session {
			t.Fatalf("drop record of %q decodes as %q (%v)", info.Session, r.scope, err)
		}
		rec, err := appendMessageRecord(nil, &m)
		if err != nil {
			t.Fatal(err)
		}
		r, err := decodeRecord(rec)
		want := m
		want.Ask = 0
		if err != nil || r.typ != recMessage || !reflect.DeepEqual(r.msg, want) {
			t.Fatalf("message record of\n%+v\ndecodes as\n%+v (%v)", m, r.msg, err)
		}
		again, err := appendMessageRecord(nil, &r.msg)
		if err != nil || !bytes.Equal(again, rec) {
			t.Fatalf("record %q re-encodes as %q (%v)", rec, again, err)
		}
		// The append record an older log holds for it decodes as the same
		// message, its number and session dropped.
		old := legacyAppendRecord(m.Seq, m.TS, int64(len(data)), info.Session, rec[len(appendHeader(nil, m.Seq, m.TS)):])
		if r, err := decodeRecord(old); err != nil || r.typ != recMessage || !reflect.DeepEqual(r.msg, want) {
			t.Fatalf("append record of\n%+v\ndecodes as\n%+v (%v)", m, r.msg, err)
		}
	})
}

// TypedSeeds are FuzzStreamRecord's messages holding registered types.
var TypedSeeds []Message

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
// A JSON payload, input or output value is what encoding/json makes of it,
// as recovery returns it.
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
		Stream: field(0),
		Seq:    int64(h >> 3),
		TS:     int64(h >> 4),
		Kind:   Kind(int8(h)),
		Tags:   tags,
		Sender: field(3),
		Ask:    h | 1,
	}
	switch h % 3 {
	case 1:
		m.Payload = field(8)
	case 2:
		m.Payload = jsonRoundTrip(t, map[string]any{"rows": []any{field(8), len(data)}, "sql": field(9)})
	}
	switch h % 4 {
	case 2:
		m.Directive = &Directive{Op: field(6), Agent: field(7)}
	case 3:
		m.Directive = fuzzDirective(t, field(6), field(7), field(9), h)
	}
	return info, m
}

// fuzzDirective sets each typed field of a directive, or leaves it zero, by
// one bit of h; text is every string field's and a string input's value.
func fuzzDirective(t *testing.T, op, agent, text string, h uint64) *Directive {
	d := &Directive{Op: op, Agent: agent}
	set := func(k uint) bool { return h>>(8+k)&1 == 1 }
	if set(0) {
		d.Invocation = text
	}
	if set(1) {
		d.Inputs = map[string]any{"TEXT": text, "N": jsonRoundTrip(t, h>>40)}
	}
	if set(3) {
		d.Parent = h
	}
	if set(4) {
		d.Deadline = int64(h)
	}
	if set(5) {
		d.Outputs = map[string]any{}
		if set(6) {
			d.Outputs[text] = jsonRoundTrip(t, []any{text, float64(h >> 12)})
		}
	}
	if set(7) {
		d.Cost = float64(int64(h)) / 7
	}
	if set(8) {
		d.Accuracy = 1 / float64(h|1)
	}
	if set(9) {
		d.Latency = time.Duration(h >> 1)
	}
	if set(10) {
		d.Error = text
	}
	return d
}
