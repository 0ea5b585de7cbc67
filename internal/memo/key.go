package memo

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math"
	"slices"
	"unicode/utf8"

	"blueprint/internal/durability"
)

// Key identifies one memoizable step execution: the 32 raw bytes of the
// SHA-256 sum of the agent name, its registry version and the canonical
// encoding of the input bindings (ComputeKey). It is a string so that it
// compares, maps and logs as one.
type Key string

// Value tags of the canonical input encoding: each input is written as its
// name, its tag and then its value.
const (
	keyNil byte = iota
	keyFalse
	keyTrue
	keyString
	keyInt
	keyFloat
	keyJSON
)

// ComputeKey hashes (agent, version, inputs) into a Key. The inputs are
// encoded in one pass, with no reflection, into a stack buffer: the names in
// sorted order, so binding order never matters, and each value under a type
// tag. An int, an int64 and an integral float64 that fits an int64 are one
// integer form, as JSON writes them, so a typed plan and its JSON-decoded
// copy key alike; another float is written as its bits, a string and a bool
// as themselves. Any other value (a map, a slice, a *QueryRows) is written
// as its json.Marshal form. Inputs JSON cannot carry (NaN, ±Inf, a channel,
// a func) make the step uncacheable and return an error.
func ComputeKey(agent string, version int, inputs map[string]any) (Key, error) {
	var room [256]byte
	b := durability.AppendVarint(durability.AppendString(room[:0], agent), int64(version))
	var names [8]string
	keys := names[:0]
	for k := range inputs {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	b = durability.AppendUvarint(b, uint64(len(keys)))
	for _, k := range keys {
		var err error
		if b, err = appendKeyValue(durability.AppendString(b, k), inputs[k]); err != nil {
			return "", fmt.Errorf("memo: inputs not canonicalizable: %q: %w", k, err)
		}
	}
	sum := sha256.Sum256(b)
	return Key(sum[:]), nil
}

// appendKeyValue appends v's tag and value.
func appendKeyValue(b []byte, v any) ([]byte, error) {
	switch v := v.(type) {
	case nil:
		return append(b, keyNil), nil
	case bool:
		if v {
			return append(b, keyTrue), nil
		}
		return append(b, keyFalse), nil
	case string:
		if !utf8.ValidString(v) {
			v = string([]rune(v)) // each invalid byte becomes U+FFFD, as JSON writes it
		}
		return durability.AppendString(append(b, keyString), v), nil
	case int:
		return durability.AppendVarint(append(b, keyInt), int64(v)), nil
	case int64:
		return durability.AppendVarint(append(b, keyInt), v), nil
	case float64:
		switch {
		case math.IsNaN(v) || math.IsInf(v, 0):
			return b, fmt.Errorf("unsupported value %v", v)
		case v == math.Trunc(v) && -(1<<63) <= v && v < 1<<63:
			return durability.AppendVarint(append(b, keyInt), int64(v)), nil
		}
		return durability.AppendFloat(append(b, keyFloat), v), nil
	}
	js, err := json.Marshal(v)
	if err != nil {
		return b, err
	}
	b = durability.AppendUvarint(append(b, keyJSON), uint64(len(js)))
	return append(b, js...), nil
}
