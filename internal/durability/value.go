package durability

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"slices"
)

// The value codec: how a subsystem logs a value whose type is open — a
// stream payload, a directive's inputs and outputs, a memo entry's outputs.
// AppendValue writes a one-byte tag and then the value; Dec.Value reads it
// back as the Go value that was written:
//
//	nil      tagNil
//	string   tagString  its bytes, so it recovers byte for byte
//	int      tagInt     a zig-zag varint
//	int64    tagInt64   a zig-zag varint
//	float64  tagFloat   its bits
//	bool     tagBool    one byte
//	a registered type   its tag, then what its codec writes
//	anything else       tagJSON, then the bytes json.Marshal writes
//
// Only the last recovers as another type: what encoding/json decodes into
// an any (map[string]any, []any, float64, ...). A registered type is one a
// package names in the table below and registers from its init function
// (RegisterValue), written with the Append* helpers and read on a Dec with
// every count checked.
const (
	tagNil byte = iota
	tagString
	tagJSON
	tagInt
	tagInt64
	tagFloat
	tagBool
)

// Registered value tags: one a type. A tag is written in the log, so it is
// never given to another type.
const (
	TagPlan      byte = 0x10 // *planner.Plan
	TagQueryRows byte = 0x11 // *hragents.QueryRows
)

var (
	// puts are the registered encoders, tried in order by AppendValue; each
	// reports false for a value not of its type.
	puts       []func(b []byte, v any) ([]byte, bool, error)
	codecByTag [256]func(*Dec) any // what Dec.Value calls for a registered tag
)

// RegisterValue makes AppendValue write a value of type T as tag followed by
// what put appends, and Dec.Value read it back with get. It is called from
// the init function of the package that defines T, with a tag from the table
// above; a tag below TagPlan, or one registered twice, panics.
func RegisterValue[T any](tag byte, put func(b []byte, v T) ([]byte, error), get func(d *Dec) T) {
	if tag < TagPlan || codecByTag[tag] != nil {
		panic(fmt.Sprintf("durability: value tag %#x registered twice or reserved", tag))
	}
	puts = append(puts, func(b []byte, v any) ([]byte, bool, error) {
		t, ok := v.(T)
		if !ok {
			return b, false, nil
		}
		b, err := put(append(b, tag), t)
		return b, true, err
	})
	codecByTag[tag] = func(d *Dec) any { return get(d) }
}

// AppendValue appends v as the value codec writes it. It fails only where
// encoding/json, or a registered type's encoder, refuses a value.
func AppendValue(b []byte, v any) ([]byte, error) {
	switch v := v.(type) {
	case nil:
		return append(b, tagNil), nil
	case string:
		return AppendString(append(b, tagString), v), nil
	case int:
		return AppendVarint(append(b, tagInt), int64(v)), nil
	case int64:
		return AppendVarint(append(b, tagInt64), v), nil
	case float64:
		return AppendFloat(append(b, tagFloat), v), nil
	case bool:
		return AppendBool(append(b, tagBool), v), nil
	}
	for _, put := range puts {
		if out, ok, err := put(b, v); ok {
			return out, err
		}
	}
	js, err := json.Marshal(v)
	if err != nil {
		return b, err
	}
	return append(AppendUvarint(append(b, tagJSON), uint64(len(js))), js...), nil
}

// AppendValues appends a string-keyed map of values, in key order so one map
// always makes the same bytes; a nil map and an empty one read back apart.
func AppendValues(b []byte, m map[string]any) ([]byte, error) {
	var room [8]string
	keys := room[:0]
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	b = AppendOptCount(b, len(keys), m == nil)
	var err error
	for _, k := range keys {
		if b, err = AppendValue(AppendString(b, k), m[k]); err != nil {
			return b, fmt.Errorf("%q: %w", k, err)
		}
	}
	return b, nil
}

// Value decodes a value AppendValue wrote. An unknown tag, or JSON that does
// not decode, latches Err.
func (d *Dec) Value() any {
	switch tag := d.Byte(); tag {
	case tagNil:
		return nil
	case tagString:
		return d.String()
	case tagInt:
		return int(d.Varint())
	case tagInt64:
		return d.Varint()
	case tagFloat:
		return d.Float()
	case tagBool:
		return d.Bool()
	case tagJSON:
		js := d.Bytes()
		if d.err != nil {
			return nil
		}
		var v any
		if err := json.Unmarshal(js, &v); err != nil {
			d.Failf("durability: decode value: %w", err)
			return nil
		}
		return v
	default:
		if get := codecByTag[tag]; get != nil {
			return get(d)
		}
		d.Failf("durability: unknown value tag %#x", tag)
		return nil
	}
}

// Values decodes a map AppendValues wrote.
func (d *Dec) Values() map[string]any {
	n := d.OptCount()
	if n < 0 {
		return nil
	}
	m := make(map[string]any, n)
	for i := 0; i < n && d.err == nil; i++ {
		k := d.String()
		m[k] = d.Value()
	}
	return m
}

// AppendBool appends v as one byte, 1 or 0.
func AppendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

// Bool decodes a byte AppendBool wrote.
func (d *Dec) Bool() bool { return d.Byte() != 0 }

// AppendStrings appends a string slice, nil and empty apart.
func AppendStrings(b []byte, ss []string) []byte {
	b = AppendOptCount(b, len(ss), ss == nil)
	for _, s := range ss {
		b = AppendString(b, s)
	}
	return b
}

// Strings decodes a slice AppendStrings wrote.
func (d *Dec) Strings() []string {
	n := d.OptCount()
	if n < 0 {
		return nil
	}
	out := make([]string, n)
	for i := range out {
		out[i] = d.String()
	}
	return out
}

// AppendOptCount appends the element count of a slice or map that may be
// nil: 0 for nil and n+1 for n elements, so a nil one and an empty one each
// read back as themselves.
func AppendOptCount(b []byte, n int, isNil bool) []byte {
	if isNil {
		return append(b, 0)
	}
	return binary.AppendUvarint(b, uint64(n)+1)
}

// OptCount decodes a count AppendOptCount wrote: -1 for nil. It is checked
// as Count is.
func (d *Dec) OptCount() int {
	n := d.Uvarint()
	if n == 0 {
		return -1
	}
	if n-1 > uint64(len(d.b)) {
		d.fail()
		return 0
	}
	return int(n - 1)
}

// End reports what kept a record from being read whole: the first decoding
// error, or the bytes left after it.
func (d *Dec) End() error {
	if d.err == nil && len(d.b) != 0 {
		d.err = fmt.Errorf("durability: %d bytes after the record", len(d.b))
	}
	return d.err
}

// Failf latches an error a caller's decoder found, unless one is latched
// already: a field that reads whole but holds what the record cannot.
func (d *Dec) Failf(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf(format, args...)
	}
}
