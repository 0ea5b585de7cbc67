// Package durability is the blueprint's shared write-ahead-log + snapshot
// engine: one segmented, CRC-framed, group-committed log and one snapshot
// file family per data directory, multiplexing every stateful subsystem
// (relational engine, memo store, registries, streams) through a small
// Loggable interface so a restarted process recovers warm instead of cold.
//
// See ARCHITECTURE.md in this directory for the record framing, segment
// rotation and snapshot/truncate protocol, and the Loggable contract.
package durability

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"blueprint/internal/obs"
	"blueprint/internal/resilience"
)

// commitSampler thins the per-group-commit debug events (1 in 8 flush
// leaders record one).
var commitSampler = obs.NewSampler(8)

// Loggable is the contract a subsystem implements to plug into the engine.
//
//   - Apply replays one log record produced by the subsystem's own Append
//     calls. The byte slice is only valid for the duration of the call
//     (the replay loop reuses its buffer); implementations must copy what
//     they retain. Replay for subsystems that log outside Engine.Log must
//     be idempotent: a record whose effect is already present in the
//     restored snapshot may be replayed again.
//   - Snapshot serializes the subsystem's full state. It is called with
//     the engine's snapshot lock held, so mutations routed through
//     Engine.Log are quiescent; the subsystem takes its own locks for
//     everything else.
//   - Restore loads a Snapshot produced by the same subsystem, replacing
//     current state. It runs before log replay during recovery.
type Loggable interface {
	Apply(rec []byte) error
	Snapshot(w io.Writer) error
	Restore(r io.Reader) error
}

// Defaults.
const (
	// DefaultSegmentBytes rotates the log when a segment exceeds this size.
	DefaultSegmentBytes = 8 << 20
	// DefaultFlushEvery is the background flush+fsync cadence bounding the
	// durability window of asynchronous appends.
	DefaultFlushEvery = 25 * time.Millisecond
)

// ErrClosed is returned by operations on a closed engine.
var ErrClosed = errors.New("durability: engine closed")

// Options configure an Engine.
type Options struct {
	// SegmentBytes is the rotation threshold (default DefaultSegmentBytes).
	SegmentBytes int64
	// FlushEvery is the background flush+fsync interval for asynchronous
	// appends (default DefaultFlushEvery; negative disables the background
	// flush — flushes then happen only on rotation, snapshot, sync and
	// close).
	FlushEvery time.Duration
	// DisableFsync skips fsync calls (tests and benchmarks on tmpfs).
	DisableFsync bool
}

func (o Options) withDefaults() Options {
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = DefaultSegmentBytes
	}
	if o.FlushEvery == 0 {
		o.FlushEvery = DefaultFlushEvery
	}
	return o
}

// RecoveryStats describes what Recover did.
type RecoveryStats struct {
	// SnapshotRestored reports whether a snapshot file seeded the state.
	SnapshotRestored bool
	// SnapshotSeq is the restored snapshot's boundary segment sequence.
	SnapshotSeq uint64
	// ReplayedRecords and ReplayedBytes count the log frames applied.
	ReplayedRecords int
	ReplayedBytes   int64
	// SkippedRecords counts frames for unregistered subsystem ids (e.g. a
	// reopen with memoization disabled).
	SkippedRecords int
	// TornTailTruncated reports that a torn final record was cut off.
	TornTailTruncated bool
	// Duration is the wall-clock time of the whole recovery.
	Duration time.Duration
}

// Stats is a snapshot of the engine's counters.
type Stats struct {
	// Appends and AppendedBytes count framed records written this run.
	Appends       uint64
	AppendedBytes int64
	// Flushes and Fsyncs count buffer flushes and fsync calls; group
	// commit keeps Fsyncs well below Appends under concurrent load.
	Flushes uint64
	Fsyncs  uint64
	// Rotations counts segment rollovers.
	Rotations uint64
	// Snapshots counts snapshots taken this run, compactions included;
	// SnapshotBytes is the size of the last one (the restored one's until
	// this run takes one). TruncatedSegments counts log segments deleted
	// after snapshots.
	Snapshots         uint64
	SnapshotBytes     int64
	TruncatedSegments uint64
	// Segments and LogBytes describe the resident log files on disk.
	Segments int
	LogBytes int64
	// Recovery describes the Recover call that opened this engine.
	Recovery RecoveryStats
}

type subsystem struct {
	name string
	l    Loggable
	// barrier marks a subsystem whose replay is not idempotent: its
	// mutations route through Engine.Log, and Snapshot serializes it
	// while holding the snapshot write lock (WithSnapshotBarrier).
	barrier bool
}

// RegisterOption configures a subsystem registration.
type RegisterOption func(*subsystem)

// WithSnapshotBarrier declares that the subsystem's replay is NOT
// idempotent and its mutations go through Engine.Log. Snapshot then
// serializes it under the snapshot write lock, so no Log-routed mutation
// can land in both the snapshot and the post-boundary log. Subsystems
// using Engine.Log MUST register with this option.
func WithSnapshotBarrier() RegisterOption {
	return func(s *subsystem) { s.barrier = true }
}

// Engine is the shared WAL + snapshot engine. All methods are safe for
// concurrent use after Recover.
type Engine struct {
	dir  string
	opts Options

	// snapMu orders snapshots against mutate+append pairs routed through
	// Log: Log holds the read side across apply+append, Snapshot holds the
	// write side across rotate+serialize, so a non-idempotent subsystem's
	// state change can never land in a snapshot while its record lands in
	// the post-snapshot log. Subsystems with idempotent replay use Append
	// directly and skip the lock.
	snapMu sync.RWMutex
	// snapOnce serializes whole Snapshot calls (rotate through truncate).
	snapOnce sync.Mutex

	mu       sync.Mutex // log writer state
	f        *os.File
	w        *bufio.Writer
	scratch  []byte // reused frame-encode buffer
	segSeq   uint64 // current segment sequence
	segBytes int64  // bytes written to the current segment
	// sealedBytes counts the sealed segments' bytes past the last
	// snapshot's boundary: the log a compaction would truncate.
	sealedBytes int64
	seq         uint64 // append ticket, for group commit
	synced      uint64 // highest ticket known flushed+fsynced
	closed      bool

	// Group commit: AppendSync callers wait until a flush+fsync covering
	// their ticket completes; one waiter leads the flush for the batch.
	cmu        sync.Mutex
	ccond      *sync.Cond
	flushedSeq uint64
	flushing   bool

	subs  map[uint8]subsystem
	order []uint8 // registered ids, ascending — snapshot section order

	recovered atomic.Bool

	appends       atomic.Uint64
	appendedBytes atomic.Int64
	flushes       atomic.Uint64
	fsyncs        atomic.Uint64
	rotations     atomic.Uint64
	snapshots     atomic.Uint64
	snapshotBytes atomic.Int64
	truncated     atomic.Uint64
	recStats      RecoveryStats

	// compact asks the flush loop for a snapshot (see append).
	compact  chan struct{}
	loopStop chan struct{}
	loopDone chan struct{}
}

// Open creates the engine over a data directory (created if absent). Call
// Register for every subsystem, then Recover exactly once; appends before
// Recover are dropped (during replay the records already exist in the log).
func Open(dir string, opts Options) (*Engine, error) {
	if dir == "" {
		return nil, errors.New("durability: data directory required")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("durability: create dir: %w", err)
	}
	e := &Engine{
		dir:     dir,
		opts:    opts.withDefaults(),
		subs:    make(map[uint8]subsystem),
		compact: make(chan struct{}, 1),
	}
	e.ccond = sync.NewCond(&e.cmu)
	return e, nil
}

// Register attaches a subsystem under a stable id (the first payload byte
// of its records). All registrations must happen before Recover.
func (e *Engine) Register(id uint8, name string, l Loggable, opts ...RegisterOption) error {
	if e.recovered.Load() {
		return errors.New("durability: register after recovery")
	}
	if l == nil {
		return errors.New("durability: nil Loggable")
	}
	if _, ok := e.subs[id]; ok {
		return fmt.Errorf("durability: subsystem id %d already registered", id)
	}
	sub := subsystem{name: name, l: l}
	for _, opt := range opts {
		opt(&sub)
	}
	e.subs[id] = sub
	e.order = append(e.order, id)
	sort.Slice(e.order, func(i, j int) bool { return e.order[i] < e.order[j] })
	return nil
}

func segName(seq uint64) string  { return fmt.Sprintf("wal-%08d.log", seq) }
func snapName(seq uint64) string { return fmt.Sprintf("snap-%08d.snap", seq) }

// syncDir fsyncs a directory so file creations/renames/unlinks inside it
// are durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// listSeqs scans dir for files matching the pattern prefix-%08d.suffix and
// returns the sequence numbers ascending.
func (e *Engine) listSeqs(prefix, suffix string) ([]uint64, error) {
	ents, err := os.ReadDir(e.dir)
	if err != nil {
		return nil, err
	}
	var out []uint64
	for _, ent := range ents {
		name := ent.Name()
		var seq uint64
		if n, err := fmt.Sscanf(name, prefix+"-%d."+suffix, &seq); n == 1 && err == nil {
			out = append(out, seq)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out, nil
}

// Recover restores the newest valid snapshot (if any), replays the log
// segments past it in order, truncates a torn final record, and opens the
// writer. It must be called exactly once, after all Register calls.
func (e *Engine) Recover() error {
	if e.recovered.Load() {
		return errors.New("durability: already recovered")
	}
	start := time.Now()
	// Clear leftovers of an interrupted snapshot write.
	if tmp, _ := filepath.Glob(filepath.Join(e.dir, "*.tmp")); tmp != nil {
		for _, p := range tmp {
			_ = os.Remove(p)
		}
	}

	boundary, snapBytes, err := e.restoreSnapshot()
	if err != nil {
		return err
	}
	e.recStats.SnapshotRestored = snapBytes > 0
	e.recStats.SnapshotSeq = boundary
	e.snapshotBytes.Store(snapBytes)

	segs, err := e.listSeqs("wal", "log")
	if err != nil {
		return fmt.Errorf("durability: list segments: %w", err)
	}
	var replayed int64 // bytes of the segments replayed, the writer's included
	for _, seq := range segs {
		if seq < boundary {
			continue // superseded by the snapshot; awaiting truncation
		}
		kept, torn, err := e.replaySegment(seq)
		if err != nil {
			return err
		}
		replayed += kept
		if torn {
			// Everything after a torn frame is unreachable; drop any later
			// segments (they can only exist after mid-log corruption).
			e.recStats.TornTailTruncated = true
			for _, later := range segs {
				if later > seq {
					_ = os.Remove(filepath.Join(e.dir, segName(later)))
				}
			}
			break
		}
	}

	// Open the writer on the newest surviving segment, or a fresh one.
	cur := boundary
	if cur == 0 {
		cur = 1
	}
	if n := len(segs); n > 0 && segs[n-1] >= cur {
		cur = segs[n-1]
	}
	path := filepath.Join(e.dir, segName(cur))
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("durability: open segment: %w", err)
	}
	if !e.opts.DisableFsync {
		if err := syncDir(e.dir); err != nil {
			f.Close()
			return fmt.Errorf("durability: sync dir after open: %w", err)
		}
	}
	fi, err := f.Stat()
	if err != nil {
		f.Close()
		return err
	}
	e.mu.Lock()
	e.f = f
	e.w = bufio.NewWriterSize(f, 1<<16)
	e.segSeq = cur
	e.segBytes = fi.Size()
	e.sealedBytes = replayed - e.segBytes
	e.mu.Unlock()

	e.recStats.Duration = time.Since(start)
	e.recovered.Store(true)

	e.loopStop = make(chan struct{})
	e.loopDone = make(chan struct{})
	go e.flushLoop()
	return nil
}

// replaySegment applies every valid frame of one segment, truncating the
// file at the first torn frame. It returns the bytes the segment keeps and
// reports whether a torn tail was cut.
func (e *Engine) replaySegment(seq uint64) (kept int64, torn bool, err error) {
	path := filepath.Join(e.dir, segName(seq))
	f, err := os.Open(path)
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return 0, false, nil
		}
		return 0, false, fmt.Errorf("durability: open segment for replay: %w", err)
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return 0, false, fmt.Errorf("durability: stat segment for replay: %w", err)
	}
	fr := &frameReader{r: bufio.NewReaderSize(f, 1<<16), size: fi.Size()}
	for {
		id, payload, rerr := fr.next()
		if errors.Is(rerr, io.EOF) {
			return fr.good, false, nil
		}
		if errors.Is(rerr, errTorn) {
			f.Close()
			if terr := os.Truncate(path, fr.good); terr != nil {
				return fr.good, true, fmt.Errorf("durability: truncate torn tail: %w", terr)
			}
			return fr.good, true, nil
		}
		if rerr != nil {
			return 0, false, rerr
		}
		sub, ok := e.subs[id]
		if !ok {
			e.recStats.SkippedRecords++
			continue
		}
		if aerr := sub.l.Apply(payload); aerr != nil {
			return 0, false, fmt.Errorf("durability: replay %s record: %w", sub.name, aerr)
		}
		e.recStats.ReplayedRecords++
		e.recStats.ReplayedBytes += int64(frameHeaderBytes + 1 + len(payload))
	}
}

// restoreSnapshot loads the newest fully valid snapshot, returning its
// boundary sequence (replay starts at that segment) and its size in bytes
// (0 when none restored).
func (e *Engine) restoreSnapshot() (uint64, int64, error) {
	snaps, err := e.listSeqs("snap", "snap")
	if err != nil {
		return 0, 0, fmt.Errorf("durability: list snapshots: %w", err)
	}
	for i := len(snaps) - 1; i >= 0; i-- {
		seq := snaps[i]
		sections, size, ok := e.readSnapshot(filepath.Join(e.dir, snapName(seq)))
		if !ok {
			continue // corrupt or torn snapshot; fall back to an older one
		}
		for _, sec := range sections {
			sub, reg := e.subs[sec.id]
			if !reg {
				continue
			}
			if err := sub.l.Restore(bytes.NewReader(sec.body)); err != nil {
				return 0, 0, fmt.Errorf("durability: restore %s snapshot: %w", sub.name, err)
			}
		}
		return seq, size, nil
	}
	return 0, 0, nil
}

type snapSection struct {
	id   uint8
	body []byte
}

var snapMagic = []byte("BPSNAP1\n")

// readSnapshot parses and fully validates a snapshot file, returning its
// sections and size; every section's CRC must check out before any byte of
// it is restored.
func (e *Engine) readSnapshot(path string) ([]snapSection, int64, bool) {
	data, err := os.ReadFile(path)
	if err != nil || !bytes.HasPrefix(data, snapMagic) {
		return nil, 0, false
	}
	body := data[len(snapMagic):]
	fr := &frameReader{r: bytes.NewReader(body), size: int64(len(body))}
	var out []snapSection
	for {
		id, payload, err := fr.next()
		if errors.Is(err, io.EOF) {
			return out, int64(len(data)), true
		}
		if err != nil {
			return nil, 0, false
		}
		out = append(out, snapSection{id: id, body: append([]byte(nil), payload...)})
	}
}

// append frames and buffers one record, returning its group-commit ticket.
func (e *Engine) append(id uint8, payload []byte) (uint64, error) {
	if !e.recovered.Load() {
		// Replay-time echo (e.g. a replayed DML bumping a data asset and
		// re-triggering a memo invalidation): the record is already in the
		// log; re-appending would duplicate it.
		return 0, nil
	}
	// Chaos hook: an active injector may fail or stall the append here, as
	// a real disk would, on the real clock the engine runs on. There is no
	// caller context on this path, so hangs are bounded by the injector
	// itself.
	if err := resilience.Check(context.Background(), nil, resilience.SiteDurability); err != nil {
		return 0, fmt.Errorf("durability: append: %w", err)
	}
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return 0, ErrClosed
	}
	if e.segBytes >= e.opts.SegmentBytes {
		if err := e.rotateLocked(); err != nil {
			e.mu.Unlock()
			return 0, err
		}
		// Compaction: once the sealed log past the last snapshot is as
		// large as that snapshot, a new one costs no more to write than the
		// log it truncates. The flush loop takes it: this append may hold
		// snapMu's read side (Log) or a subsystem's lock, and Snapshot
		// waits for both.
		if e.compactDueLocked() {
			select {
			case e.compact <- struct{}{}:
			default: // one is already asked for
			}
		}
	}
	e.scratch = appendFrame(e.scratch[:0], id, payload)
	if _, err := e.w.Write(e.scratch); err != nil {
		e.mu.Unlock()
		return 0, fmt.Errorf("durability: append: %w", err)
	}
	e.segBytes += int64(len(e.scratch))
	e.seq++
	seq := e.seq
	e.mu.Unlock()
	e.appends.Add(1)
	e.appendedBytes.Add(int64(len(payload)) + frameHeaderBytes + 1)
	return seq, nil
}

// Append logs one record asynchronously: it is buffered immediately and
// made durable by the next group commit, background flush, rotation,
// snapshot or close. Use AppendSync (or Sync) when the caller must not
// return before the record is on disk.
func (e *Engine) Append(id uint8, payload []byte) error {
	_, err := e.append(id, payload)
	return err
}

// AppendSync logs one record and waits for a flush+fsync covering it.
// Concurrent callers share fsyncs: one waiter flushes for the whole batch
// (group commit), the rest just observe the advanced flush horizon.
func (e *Engine) AppendSync(id uint8, payload []byte) error {
	seq, err := e.append(id, payload)
	if err != nil || seq == 0 {
		return err
	}
	return e.commit(seq)
}

// commit blocks until flushedSeq >= seq, electing one flush leader per
// batch.
func (e *Engine) commit(seq uint64) error {
	e.cmu.Lock()
	defer e.cmu.Unlock()
	for e.flushedSeq < seq {
		if e.flushing {
			e.ccond.Wait()
			continue
		}
		e.flushing = true
		prev := e.flushedSeq
		e.cmu.Unlock()
		flushed, err := e.flushAndSync()
		e.cmu.Lock()
		e.flushing = false
		if flushed > e.flushedSeq {
			e.flushedSeq = flushed
		}
		e.ccond.Broadcast()
		if err != nil {
			return err
		}
		// One debug event per elected flush leader, sampled: group commits
		// are the WAL's steady state, so only a thinned stream is recorded —
		// enough to see batch coverage without washing out the event ring.
		if flushed > prev && obs.Events.On(obs.LevelDebug) && commitSampler.Allow() {
			obs.Events.Emit(obs.LevelDebug, "durability", "group-commit",
				obs.Attr{Key: "batch", Value: strconv.FormatUint(flushed-prev, 10)},
				obs.Attr{Key: "flushed_seq", Value: strconv.FormatUint(flushed, 10)})
		}
	}
	return nil
}

// flushAndSync flushes the buffered log and fsyncs the segment, returning
// the append ticket the flush covers.
func (e *Engine) flushAndSync() (uint64, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed || e.f == nil {
		return e.seq, ErrClosed
	}
	seq := e.seq
	if seq == e.synced {
		return seq, nil // nothing appended since the last sync: idle tick
	}
	if err := e.w.Flush(); err != nil {
		return 0, err
	}
	e.flushes.Add(1)
	if !e.opts.DisableFsync {
		if err := e.f.Sync(); err != nil {
			return 0, err
		}
		e.fsyncs.Add(1)
	}
	e.synced = seq
	return seq, nil
}

// Sync makes every record appended so far durable.
func (e *Engine) Sync() error {
	_, err := e.flushAndSync()
	return err
}

// compactDueLocked reports whether the sealed log past the last snapshot's
// boundary is at least as large as that snapshot. Caller holds e.mu.
func (e *Engine) compactDueLocked() bool {
	return e.sealedBytes >= e.snapshotBytes.Load()
}

// rotateLocked seals the current segment and opens the next. Caller holds
// e.mu.
func (e *Engine) rotateLocked() error {
	if err := e.w.Flush(); err != nil {
		return err
	}
	if !e.opts.DisableFsync {
		if err := e.f.Sync(); err != nil {
			return err
		}
		e.fsyncs.Add(1)
	}
	if err := e.f.Close(); err != nil {
		return err
	}
	e.segSeq++
	f, err := os.OpenFile(filepath.Join(e.dir, segName(e.segSeq)), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("durability: rotate: %w", err)
	}
	if !e.opts.DisableFsync {
		// Persist the new segment's dirent: records fsynced into it must
		// not vanish with the file after a power loss.
		if err := syncDir(e.dir); err != nil {
			f.Close()
			return fmt.Errorf("durability: sync dir after rotate: %w", err)
		}
	}
	e.f = f
	e.w.Reset(f)
	e.sealedBytes += e.segBytes
	e.segBytes = 0
	e.synced = e.seq // everything so far is on the sealed, fsynced segment
	e.rotations.Add(1)
	return nil
}

// Log runs apply and appends the payload it returns as one atomic unit
// with respect to Snapshot: either both the state change and the record
// land before the snapshot boundary, or both after. Subsystems whose
// replay is not idempotent (the relational engine's logical DML records)
// must route every mutation through Log AND register with
// WithSnapshotBarrier (so Snapshot serializes them under this lock's
// write side); idempotent subsystems use Append. A nil payload (e.g.
// apply produced nothing) appends nothing.
func (e *Engine) Log(id uint8, apply func() ([]byte, error)) error {
	e.snapMu.RLock()
	defer e.snapMu.RUnlock()
	payload, err := apply()
	if err != nil || payload == nil {
		return err
	}
	return e.Append(id, payload)
}

// Snapshot serializes every registered subsystem into a new snapshot file,
// then deletes the log segments and older snapshots it supersedes. The
// write is atomic (temp file + rename); a crash mid-snapshot leaves the
// previous snapshot and the full log intact.
func (e *Engine) Snapshot() error {
	if !e.recovered.Load() {
		return errors.New("durability: snapshot before recovery")
	}
	e.snapOnce.Lock()
	defer e.snapOnce.Unlock()

	// Rotate so the snapshot boundary is the start of a fresh segment;
	// everything before it is superseded by the snapshot contents.
	e.snapMu.Lock()
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		e.snapMu.Unlock()
		return ErrClosed
	}
	if e.segBytes > 0 {
		if err := e.rotateLocked(); err != nil {
			e.mu.Unlock()
			e.snapMu.Unlock()
			return err
		}
	}
	boundary := e.segSeq
	sealed := e.sealedBytes // all before the boundary
	e.mu.Unlock()

	// Phase 1 (under the snapshot write lock): serialize the barrier
	// subsystems — the ones whose mutations route through Log and whose
	// replay is not idempotent, so their state must be captured exactly
	// at the boundary. Phase 2 (lock released): serialize everyone else —
	// an idempotent subsystem's mutation landing in both the snapshot and
	// the post-boundary log replays harmlessly, so relational writes are
	// not stalled while e.g. the full stream history encodes.
	sections := make(map[uint8][]byte, len(e.order))
	serialize := func(id uint8) error {
		sub := e.subs[id]
		var section bytes.Buffer
		if err := sub.l.Snapshot(&section); err != nil {
			return fmt.Errorf("durability: snapshot %s: %w", sub.name, err)
		}
		sections[id] = section.Bytes()
		return nil
	}
	var serr error
	for _, id := range e.order {
		if e.subs[id].barrier {
			if serr = serialize(id); serr != nil {
				break
			}
		}
	}
	e.snapMu.Unlock()
	if serr != nil {
		return serr
	}
	for _, id := range e.order {
		if !e.subs[id].barrier {
			if err := serialize(id); err != nil {
				return err
			}
		}
	}

	var buf bytes.Buffer
	buf.Write(snapMagic)
	var scratch []byte
	for _, id := range e.order {
		scratch = appendFrame(scratch[:0], id, sections[id])
		buf.Write(scratch)
	}

	path := filepath.Join(e.dir, snapName(boundary))
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, buf.Bytes(), 0o644); err != nil {
		return fmt.Errorf("durability: write snapshot: %w", err)
	}
	if !e.opts.DisableFsync {
		if f, err := os.Open(tmp); err == nil {
			_ = f.Sync()
			f.Close()
		}
	}
	if err := os.Rename(tmp, path); err != nil {
		return fmt.Errorf("durability: publish snapshot: %w", err)
	}
	// Make the rename durable before unlinking what it supersedes: without
	// the directory fsync, a power loss could persist the deletions below
	// while losing the new snapshot's dirent — leaving neither the
	// snapshot nor the covering log segments.
	if !e.opts.DisableFsync {
		if err := syncDir(e.dir); err != nil {
			return fmt.Errorf("durability: sync dir after snapshot publish: %w", err)
		}
	}

	// Truncate: segments and snapshots strictly before the boundary are
	// fully covered by the new snapshot.
	if segs, err := e.listSeqs("wal", "log"); err == nil {
		for _, seq := range segs {
			if seq < boundary {
				if os.Remove(filepath.Join(e.dir, segName(seq))) == nil {
					e.truncated.Add(1)
				}
			}
		}
	}
	if snaps, err := e.listSeqs("snap", "snap"); err == nil {
		for _, seq := range snaps {
			if seq < boundary {
				_ = os.Remove(filepath.Join(e.dir, snapName(seq)))
			}
		}
	}
	e.mu.Lock()
	e.sealedBytes -= sealed
	e.mu.Unlock()
	e.snapshots.Add(1)
	e.snapshotBytes.Store(int64(buf.Len()))
	return nil
}

// flushLoop is the engine's background goroutine: it flushes every
// FlushEvery, and takes the snapshots append finds due. A compaction that
// fails leaves the log intact; the next sealed segment asks again.
func (e *Engine) flushLoop() {
	defer close(e.loopDone)
	var tick <-chan time.Time
	if e.opts.FlushEvery > 0 {
		t := time.NewTicker(e.opts.FlushEvery)
		defer t.Stop()
		tick = t.C
	}
	for {
		select {
		case <-tick:
			_, _ = e.flushAndSync()
		case <-e.compact:
			e.mu.Lock()
			due := e.compactDueLocked() // a snapshot since the ask may have paid it
			e.mu.Unlock()
			if due {
				_ = e.Snapshot()
			}
		case <-e.loopStop:
			return
		}
	}
}

// Close flushes and closes the log. It does not snapshot: callers wanting
// a warm-start boundary take one first (System.Close does).
func (e *Engine) Close() error {
	if e.loopStop != nil {
		close(e.loopStop)
		<-e.loopDone
		e.loopStop = nil
	}
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return nil
	}
	e.closed = true
	var err error
	if e.f != nil {
		if ferr := e.w.Flush(); ferr != nil {
			err = ferr
		}
		if !e.opts.DisableFsync {
			if ferr := e.f.Sync(); ferr != nil && err == nil {
				err = ferr
			}
		}
		if ferr := e.f.Close(); ferr != nil && err == nil {
			err = ferr
		}
	}
	seq := e.seq
	e.mu.Unlock()
	// Release any group-commit waiters: everything buffered is on disk.
	e.cmu.Lock()
	if seq > e.flushedSeq {
		e.flushedSeq = seq
	}
	e.ccond.Broadcast()
	e.cmu.Unlock()
	return err
}

// Stats returns a snapshot of the counters plus the on-disk footprint.
func (e *Engine) Stats() Stats {
	st := Stats{
		Appends:           e.appends.Load(),
		AppendedBytes:     e.appendedBytes.Load(),
		Flushes:           e.flushes.Load(),
		Fsyncs:            e.fsyncs.Load(),
		Rotations:         e.rotations.Load(),
		Snapshots:         e.snapshots.Load(),
		SnapshotBytes:     e.snapshotBytes.Load(),
		TruncatedSegments: e.truncated.Load(),
		Recovery:          e.recStats,
	}
	if segs, err := e.listSeqs("wal", "log"); err == nil {
		st.Segments = len(segs)
		for _, seq := range segs {
			if fi, err := os.Stat(filepath.Join(e.dir, segName(seq))); err == nil {
				st.LogBytes += fi.Size()
			}
		}
	}
	return st
}

// SubLogger is a per-subsystem logging handle: the narrow surface a
// subsystem holds so it never needs to know its own id or the engine.
type SubLogger struct {
	e  *Engine
	id uint8
}

// Logger returns the logging handle for a subsystem id.
func (e *Engine) Logger(id uint8) *SubLogger { return &SubLogger{e: e, id: id} }

// Append logs one record asynchronously (see Engine.Append).
func (l *SubLogger) Append(payload []byte) error { return l.e.Append(l.id, payload) }

// LogMutation atomically applies and logs a mutation (see Engine.Log).
func (l *SubLogger) LogMutation(apply func() ([]byte, error)) error { return l.e.Log(l.id, apply) }
