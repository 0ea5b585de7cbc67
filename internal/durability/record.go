package durability

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
)

// Log records and snapshot sections share one frame format:
//
//	[u32 length][u32 CRC-32C][u8 subsystem id][payload ...]
//
// length counts the id byte plus the payload; the CRC covers the same
// bytes. The frame is self-validating: recovery stops (and truncates) at
// the first frame whose header is short, whose length is implausible, or
// whose CRC does not match — the torn-tail contract after a crash.
const (
	frameHeaderBytes = 8
	// maxFrameBytes bounds a single record/section; anything larger in a
	// header is treated as corruption rather than attempted allocation.
	maxFrameBytes = 256 << 20
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// errTorn marks an incomplete or corrupt trailing frame. It is internal:
// recovery converts it into truncation, never into a caller-visible error.
var errTorn = errors.New("durability: torn frame")

// appendFrame appends one framed record to buf and returns the extended
// slice (the writer reuses one scratch buffer across appends).
func appendFrame(buf []byte, id uint8, payload []byte) []byte {
	n := len(payload) + 1
	var hdr [frameHeaderBytes]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(n))
	crc := crc32.Update(0, crcTable, []byte{id})
	crc = crc32.Update(crc, crcTable, payload)
	binary.LittleEndian.PutUint32(hdr[4:8], crc)
	buf = append(buf, hdr[:]...)
	buf = append(buf, id)
	buf = append(buf, payload...)
	return buf
}

// frameReader reads frames from a byte stream, tracking the offset of the
// end of the last fully validated frame so a torn tail can be truncated.
type frameReader struct {
	r    io.Reader
	size int64  // bytes in the source: a frame claiming more than is left is torn, and is not allocated for
	buf  []byte // reused payload buffer; contents valid until the next read
	good int64  // offset just past the last valid frame
}

// next returns the next frame's id and payload. The payload slice is only
// valid until the following call. It returns io.EOF at a clean end and
// errTorn for a short or corrupt trailing frame.
func (fr *frameReader) next() (uint8, []byte, error) {
	var hdr [frameHeaderBytes]byte
	n, err := io.ReadFull(fr.r, hdr[:])
	if n == 0 && (errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF)) {
		return 0, nil, io.EOF
	}
	if err != nil {
		return 0, nil, errTorn
	}
	length := binary.LittleEndian.Uint32(hdr[0:4])
	if length == 0 || length > maxFrameBytes || int64(length) > fr.size-fr.good-frameHeaderBytes {
		return 0, nil, errTorn
	}
	if cap(fr.buf) < int(length) {
		fr.buf = make([]byte, length)
	}
	body := fr.buf[:length]
	if _, err := io.ReadFull(fr.r, body); err != nil {
		return 0, nil, errTorn
	}
	if crc32.Checksum(body, crcTable) != binary.LittleEndian.Uint32(hdr[4:8]) {
		return 0, nil, errTorn
	}
	fr.good += int64(frameHeaderBytes) + int64(length)
	return body[0], body[1:], nil
}

// ---- binary encoding helpers shared by subsystem record formats ----

// AppendUvarint appends v as an unsigned varint.
func AppendUvarint(b []byte, v uint64) []byte {
	return binary.AppendUvarint(b, v)
}

// AppendVarint appends v as a zig-zag signed varint.
func AppendVarint(b []byte, v int64) []byte {
	return binary.AppendVarint(b, v)
}

// AppendString appends a length-prefixed string.
func AppendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

// AppendFloat appends an IEEE-754 float64 (8 bytes, little endian).
func AppendFloat(b []byte, f float64) []byte {
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(f))
}

// Dec decodes the encodings produced by the Append* helpers. The first
// malformed field latches Err; subsequent reads return zero values, so
// callers may decode a full record and check Err once.
type Dec struct {
	b   []byte
	err error
}

// NewDec returns a decoder over b. The decoder aliases b; values returned
// by Bytes share its backing array.
func NewDec(b []byte) *Dec { return &Dec{b: b} }

// Err reports the first decoding error, if any.
func (d *Dec) Err() error { return d.err }

// Len reports the number of undecoded bytes.
func (d *Dec) Len() int { return len(d.b) }

func (d *Dec) fail() {
	if d.err == nil {
		d.err = fmt.Errorf("durability: truncated or malformed record")
	}
}

// Uvarint decodes an unsigned varint.
func (d *Dec) Uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.b)
	if n <= 0 {
		d.fail()
		return 0
	}
	d.b = d.b[n:]
	return v
}

// Varint decodes a zig-zag signed varint.
func (d *Dec) Varint() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.b)
	if n <= 0 {
		d.fail()
		return 0
	}
	d.b = d.b[n:]
	return v
}

// Count decodes an element count. Every element takes at least one byte, so
// a count beyond the undecoded bytes is malformed: it latches Err and reads
// 0, and no caller sizes an allocation the input cannot fill.
func (d *Dec) Count() int {
	n := d.Uvarint()
	if n > uint64(len(d.b)) {
		d.fail()
		return 0
	}
	return int(n)
}

// Bytes decodes a length-prefixed byte string (a view into the input).
func (d *Dec) Bytes() []byte {
	n := d.Uvarint()
	if d.err != nil {
		return nil
	}
	if uint64(len(d.b)) < n {
		d.fail()
		return nil
	}
	out := d.b[:n]
	d.b = d.b[n:]
	return out
}

// String decodes a length-prefixed string (copied out of the input).
func (d *Dec) String() string { return string(d.Bytes()) }

// Float decodes an IEEE-754 float64.
func (d *Dec) Float() float64 {
	if d.err != nil {
		return 0
	}
	if len(d.b) < 8 {
		d.fail()
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(d.b))
	d.b = d.b[8:]
	return v
}

// Byte decodes a single byte.
func (d *Dec) Byte() uint8 {
	if d.err != nil {
		return 0
	}
	if len(d.b) < 1 {
		d.fail()
		return 0
	}
	v := d.b[0]
	d.b = d.b[1:]
	return v
}
