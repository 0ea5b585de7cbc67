package durability

import (
	"io"
	"maps"
	"slices"
	"sync"
	"testing"
	"time"
)

// kvSub is a fixed key set, each key holding its latest version and a value
// of pad bytes: overwriting it keeps its snapshot about one size however long
// it runs. Apply keeps the higher version, so a record the snapshot already
// holds replays harmlessly.
type kvSub struct {
	mu   sync.Mutex
	vers map[uint64]uint64
	pad  int
}

func newKV(pad int) *kvSub { return &kvSub{vers: map[uint64]uint64{}, pad: pad} }

func (s *kvSub) record(k, v uint64) []byte {
	return append(AppendUvarint(AppendUvarint(nil, k), v), make([]byte, s.pad)...)
}

func (s *kvSub) Apply(rec []byte) error {
	d := NewDec(rec)
	k, v := d.Uvarint(), d.Uvarint()
	if err := d.Err(); err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if v > s.vers[k] {
		s.vers[k] = v
	}
	return nil
}

func (s *kvSub) Snapshot(w io.Writer) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	b := AppendUvarint(nil, uint64(len(s.vers)))
	for _, k := range slices.Sorted(maps.Keys(s.vers)) {
		b = AppendString(AppendUvarint(AppendUvarint(b, k), s.vers[k]), string(make([]byte, s.pad)))
	}
	_, err := w.Write(b)
	return err
}

func (s *kvSub) Restore(r io.Reader) error {
	b, err := io.ReadAll(r)
	if err != nil {
		return err
	}
	d := NewDec(b)
	s.mu.Lock()
	defer s.mu.Unlock()
	s.vers = map[uint64]uint64{}
	for n := d.Uvarint(); n > 0 && d.Err() == nil; n-- {
		k, v := d.Uvarint(), d.Uvarint()
		d.Bytes()
		s.vers[k] = v
	}
	return d.Err()
}

func (s *kvSub) state() map[uint64]uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return maps.Clone(s.vers)
}

// sumSub is a running total whose records are deltas: its replay is not
// idempotent, so it logs through Engine.Log and registers as a barrier.
type sumSub struct {
	mu    sync.Mutex
	total int64
}

func (s *sumSub) add(d int64) {
	s.mu.Lock()
	s.total += d
	s.mu.Unlock()
}

func (s *sumSub) Apply(rec []byte) error {
	d := NewDec(rec)
	s.add(d.Varint())
	return d.Err()
}

func (s *sumSub) Snapshot(w io.Writer) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, err := w.Write(AppendVarint(nil, s.total))
	return err
}

func (s *sumSub) Restore(r io.Reader) error {
	b, err := io.ReadAll(r)
	if err != nil {
		return err
	}
	d := NewDec(b)
	s.mu.Lock()
	defer s.mu.Unlock()
	s.total = d.Varint()
	return d.Err()
}

// awaitSnapshots waits until the engine has taken n snapshots this run.
func awaitSnapshots(t *testing.T, e *Engine, n uint64) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); e.Stats().Snapshots < n; {
		if time.Now().After(deadline) {
			t.Fatalf("snapshot %d was due and never taken (%d taken)", n, e.Stats().Snapshots)
		}
		time.Sleep(time.Millisecond)
	}
}

// ruleMirror follows the compaction rule over what one writer appends, so a
// test knows which append asks for a compaction and can wait for it by the
// engine's snapshot count.
type ruleMirror struct {
	seg    int64 // bytes in the open segment
	sealed int64 // sealed bytes past the last snapshot's boundary
}

// append mirrors appending one frame of n bytes to a log whose last
// snapshot is snap bytes, and reports whether it asks for a compaction.
func (r *ruleMirror) append(n, segmentBytes, snap int64) (due bool) {
	if r.seg >= segmentBytes {
		r.sealed += r.seg
		r.seg = 0
		due = r.sealed >= snap
	}
	r.seg += n
	return due
}

// TestLogCompactsItself is the compaction witness: a subsystem whose
// snapshot stays about two segments large is overwritten for 24 segments of
// log, then crashed and reopened, then crashed and reopened ten more times
// with less than a segment appended in each life. After every append the
// resident log, and at every reopen what recovery replayed, stays within the
// last snapshot's size plus three segments; every compaction comes exactly
// when the rule says; and the recovered state equals the model.
func TestLogCompactsItself(t *testing.T) {
	const (
		seg  = 4 << 10
		keys = 64
		pad  = 120 // 64 keys of ~124 bytes: a ~7.9 KB snapshot
	)
	dir := t.TempDir()
	model := map[uint64]uint64{}
	var mir ruleMirror
	var e *Engine
	var s *kvSub
	var want uint64 // compactions due this run
	bound := func(st Stats) int64 { return st.SnapshotBytes + 3*seg }
	reopen := func() {
		t.Helper()
		var snap int64
		if e != nil {
			snap = e.Stats().SnapshotBytes
			if err := e.Close(); err != nil { // no snapshot: a crash
				t.Fatal(err)
			}
		}
		s, want = newKV(pad), 0
		var err error
		if e, err = Open(dir, Options{DisableFsync: true, SegmentBytes: seg}); err != nil {
			t.Fatal(err)
		}
		if err := e.Register(1, "kv", s); err != nil {
			t.Fatal(err)
		}
		if err := e.Recover(); err != nil {
			t.Fatal(err)
		}
		st := e.Stats()
		if st.SnapshotBytes != snap { // the restored snapshot's size seeds the rule
			t.Fatalf("reopened with SnapshotBytes %d, the last snapshot was %d bytes", st.SnapshotBytes, snap)
		}
		if got := st.Recovery.ReplayedBytes; got > bound(st) {
			t.Fatalf("recovery replayed %d bytes, over the last snapshot's %d plus three segments", got, st.SnapshotBytes)
		}
		if got := s.state(); !maps.Equal(got, model) {
			t.Fatalf("recovered %d keys unequal to the model's %d", len(got), len(model))
		}
	}
	i := uint64(0)
	put := func() {
		t.Helper()
		k := i % keys
		i++
		model[k]++
		rec := s.record(k, model[k])
		if err := s.Apply(rec); err != nil {
			t.Fatal(err)
		}
		due := mir.append(int64(frameHeaderBytes+1+len(rec)), seg, e.Stats().SnapshotBytes)
		if err := e.Append(1, rec); err != nil {
			t.Fatal(err)
		}
		if due {
			want++
			awaitSnapshots(t, e, want)
			mir.seg, mir.sealed = 0, 0 // the snapshot sealed the open segment and truncated every sealed one
		}
		st := e.Stats()
		if st.Snapshots != want {
			t.Fatalf("after %d appends: %d snapshots taken, the rule asks for %d", i, st.Snapshots, want)
		}
		if st.LogBytes > bound(st) {
			t.Fatalf("after %d appends: the log holds %d bytes in %d segments, over the last snapshot's %d plus three segments",
				i, st.LogBytes, st.Segments, st.SnapshotBytes)
		}
	}

	reopen()
	for e.Stats().AppendedBytes < 24*seg {
		put()
	}
	if want < 3 {
		t.Fatalf("%d compactions over 24 segments of log", want)
	}
	st := e.Stats()
	t.Logf("%d appends, %d bytes: %d compactions; the log %d bytes in %d segments, the snapshot %d bytes",
		st.Appends, st.AppendedBytes, st.Snapshots, st.LogBytes, st.Segments, st.SnapshotBytes)
	reopen()
	if !e.Stats().Recovery.SnapshotRestored {
		t.Fatal("no snapshot restored")
	}
	t.Logf("after the crash: replayed %d bytes", e.Stats().Recovery.ReplayedBytes)
	for life := 0; life < 10; life++ {
		for start := e.Stats().AppendedBytes; e.Stats().AppendedBytes-start < 3*seg/4; {
			put()
		}
		reopen()
		t.Logf("life %d: replayed %d bytes, the log %d bytes", life+1, e.Stats().Recovery.ReplayedBytes, e.Stats().LogBytes)
	}
	e.Close()
}

// TestCompactionRacesWriters races the compactions a small segment asks for
// against writers through Log (a barrier subsystem whose replay is not
// idempotent) and plain Appenders, then closes without a snapshot and
// recovers: the state must equal a model of every acknowledged write.
func TestCompactionRacesWriters(t *testing.T) {
	dir := t.TempDir()
	open := func() (*Engine, *sumSub, *kvSub) {
		t.Helper()
		sum, kv := &sumSub{}, newKV(0)
		e, err := Open(dir, Options{DisableFsync: true, FlushEvery: time.Millisecond, SegmentBytes: 512})
		if err != nil {
			t.Fatal(err)
		}
		if err := e.Register(1, "sum", sum, WithSnapshotBarrier()); err != nil {
			t.Fatal(err)
		}
		if err := e.Register(2, "kv", kv); err != nil {
			t.Fatal(err)
		}
		if err := e.Recover(); err != nil {
			t.Fatal(err)
		}
		return e, sum, kv
	}
	e, sum, kv := open()

	const writers, per = 2, 2000
	var wg sync.WaitGroup
	var mu sync.Mutex
	wantSum, wantKV := int64(0), map[uint64]uint64{}
	for w := 0; w < writers; w++ {
		wg.Add(2)
		go func() { // through Log
			defer wg.Done()
			for i := 0; i < per; i++ {
				d := int64(w*per + i + 1)
				err := e.Log(1, func() ([]byte, error) {
					sum.add(d)
					return AppendVarint(nil, d), nil
				})
				if err != nil {
					t.Error(err)
					return
				}
				mu.Lock()
				wantSum += d
				mu.Unlock()
			}
		}()
		go func() { // through Append, on keys of its own
			defer wg.Done()
			vers := map[uint64]uint64{}
			for i := 0; i < per; i++ {
				k := uint64(w*8 + i%8)
				vers[k]++
				rec := kv.record(k, vers[k])
				if err := kv.Apply(rec); err != nil {
					t.Error(err)
					return
				}
				if err := e.Append(2, rec); err != nil {
					t.Error(err)
					return
				}
			}
			mu.Lock()
			maps.Copy(wantKV, vers)
			mu.Unlock()
		}()
	}
	wg.Wait()
	awaitSnapshots(t, e, 1)
	st := e.Stats()
	t.Logf("%d appends: %d rotations, %d compactions", st.Appends, st.Rotations, st.Snapshots)
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}

	e, sum, kv = open()
	defer e.Close()
	if sum.total != wantSum {
		t.Errorf("recovered total %d, acknowledged %d", sum.total, wantSum)
	}
	if got := kv.state(); !maps.Equal(got, wantKV) {
		t.Errorf("recovered %v, acknowledged %v", got, wantKV)
	}
}
