package relational

import (
	"encoding/binary"
	"math"
)

// Binary hash-key encoding for rows and values.
//
// The executor's hash operators (GROUP BY bucketing, DISTINCT) need a map key
// that identifies a value's equality class. The original implementation
// rendered every value to a fresh string ("i:42", "s:Oakland", ...) and
// concatenated multi-column keys through a strings.Builder — one or more heap
// allocations per row per operator. appendValueKey instead encodes the value into a caller-owned
// scratch []byte that is truncated and reused across rows, so the steady
// state of a hash probe allocates nothing: Go map lookups with a
// `m[string(scratch)]` expression do not copy the byte slice, and the key
// string is only materialized once per distinct value on first insertion.
//
// Encoding (one tagged record per value, self-delimiting so multi-column
// keys need no separator and cannot collide across column boundaries):
//
//	null   -> 0x00
//	bool   -> 0x01, 0x00|0x01
//	int    -> 0x02, 8-byte big-endian two's complement
//	float  -> integral floats encode as int (so 3.0 groups with 3,
//	          matching Value.Key and Compare); otherwise 0x03, 8-byte IEEE bits
//	string -> 0x04, uvarint byte length, raw bytes
//
// Two values encode to the same bytes iff Value.Key treats them as the same
// equality class (see TestAppendValueKeyMatchesKeyEquivalence).
const (
	keyTagNull   = 0x00
	keyTagBool   = 0x01
	keyTagInt    = 0x02
	keyTagFloat  = 0x03
	keyTagString = 0x04
)

// appendValueKey appends the binary equality key of v to dst and returns the
// extended slice. Callers reuse dst across rows (dst = appendValueKey(dst[:0], v)).
func appendValueKey(dst []byte, v Value) []byte {
	switch v.T {
	case TInt:
		dst = append(dst, keyTagInt)
		return binary.BigEndian.AppendUint64(dst, uint64(v.I))
	case TFloat:
		// Integral floats share keys with ints so 3 = 3.0 lookups work,
		// mirroring Value.Key.
		if v.F == float64(int64(v.F)) {
			dst = append(dst, keyTagInt)
			return binary.BigEndian.AppendUint64(dst, uint64(int64(v.F)))
		}
		dst = append(dst, keyTagFloat)
		return binary.BigEndian.AppendUint64(dst, math.Float64bits(v.F))
	case TString:
		dst = append(dst, keyTagString)
		dst = binary.AppendUvarint(dst, uint64(len(v.S)))
		return append(dst, v.S...)
	case TBool:
		if v.B {
			return append(dst, keyTagBool, 1)
		}
		return append(dst, keyTagBool, 0)
	default:
		return append(dst, keyTagNull)
	}
}

// appendRowKey appends the concatenated keys of every value in the row.
func appendRowKey(dst []byte, r Row) []byte {
	for _, v := range r {
		dst = appendValueKey(dst, v)
	}
	return dst
}
