package durability

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"testing"
)

// recorder is a Loggable that keeps every record it is handed, verbatim.
type recorder struct{ recs [][]byte }

func (r *recorder) Apply(rec []byte) error {
	r.recs = append(r.recs, append([]byte(nil), rec...))
	return nil
}
func (r *recorder) Snapshot(io.Writer) error { return nil }
func (r *recorder) Restore(io.Reader) error  { return nil }

// FuzzRecoverSegment hands recovery arbitrary bytes as its only log segment.
// Whatever they are, Open + Register + Recover does not panic and either
// fails or applies exactly the well-framed prefix (decoded here a second
// time, independently of frameReader) and cuts the file off behind it; a
// second recovery of the same directory then applies the same records.
func FuzzRecoverSegment(f *testing.F) {
	frame := appendFrame(nil, 1, []byte("one"))
	flipped := append([]byte(nil), frame...)
	flipped[5] ^= 0xFF // a CRC byte
	f.Add([]byte{})
	f.Add(frame)
	f.Add(append(append([]byte(nil), frame...), 1, 2, 3))
	f.Add(flipped)

	f.Fuzz(func(t *testing.T, segment []byte) {
		var want [][]byte
		good := 0
		for rest := segment; len(rest) >= frameHeaderBytes; rest = segment[good:] {
			n := binary.LittleEndian.Uint32(rest)
			if n == 0 || uint64(n) > uint64(len(rest)-frameHeaderBytes) {
				break
			}
			body := rest[frameHeaderBytes : frameHeaderBytes+int(n)]
			if crc32.Checksum(body, crcTable) != binary.LittleEndian.Uint32(rest[4:]) {
				break
			}
			if body[0] == 1 {
				want = append(want, body[1:])
			}
			good += frameHeaderBytes + int(n)
		}

		dir := t.TempDir()
		path := filepath.Join(dir, segName(1))
		if err := os.WriteFile(path, segment, 0o644); err != nil {
			t.Fatal(err)
		}
		for pass := 1; pass <= 2; pass++ {
			e, err := Open(dir, Options{DisableFsync: true, FlushEvery: -1})
			if err != nil {
				t.Fatal(err)
			}
			rec := &recorder{}
			if err := e.Register(1, "recorder", rec); err != nil {
				t.Fatal(err)
			}
			if err := e.Recover(); err != nil {
				return // refusing the log is allowed; guessing at it is not
			}
			if err := e.Close(); err != nil {
				t.Fatal(err)
			}
			if len(rec.recs) != len(want) {
				t.Fatalf("pass %d applied %d records, the segment frames %d", pass, len(rec.recs), len(want))
			}
			for i := range want {
				if !bytes.Equal(rec.recs[i], want[i]) {
					t.Fatalf("pass %d record %d = %q, framed as %q", pass, i, rec.recs[i], want[i])
				}
			}
			if fi, err := os.Stat(path); err != nil || fi.Size() != int64(good) {
				t.Fatalf("pass %d left the segment at %v bytes (%v), its well-framed prefix is %d of %d", pass, fi.Size(), err, good, len(segment))
			}
		}
	})
}
