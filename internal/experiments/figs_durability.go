package experiments

import (
	"fmt"
	"os"
	"time"

	"blueprint"
)

// AblationDurability (A8) measures the durability subsystem: crash
// recovery as a benchmarked scenario, not just a code path.
//
//   - durable write overhead: N relational inserts with the shared WAL
//     attached versus in-memory — group commit and the reused encode
//     buffer keep the durable path within ~2x.
//   - cold-start replay: a crashed process (no snapshot) reopens by
//     replaying the full log of N committed writes.
//   - snapshot restore: after a graceful shutdown the same state reopens
//     from the snapshot. Enforced in every mode on record counts: the crash
//     start replays every committed write, the warm start replays none.
//     The wall-clock floor (>= 5x faster than full replay at 50k records)
//     is enforced in full mode only.
//   - warm memo across restart: a repeated ask after the restart must be
//     served from the restored memo store (hit rate > 0, enforced).
func AblationDurability(seed int64) (*Table, error) {
	records := 50000
	if Short {
		records = 3000
	}

	dir, err := os.MkdirTemp("", "bp-a8-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	t := &Table{ID: "A8", Title: "Durability: durable-write overhead, crash replay vs snapshot restore, warm memo across restart"}
	const question = "How many jobs are in San Francisco?"
	const insertSQL = `INSERT INTO events VALUES (?, ?, ?)`

	insertN := func(sys *blueprint.System, n int) error {
		if _, err := sys.Enterprise.DB.Exec(`CREATE TABLE events (id INT, kind TEXT, score FLOAT)`); err != nil {
			return err
		}
		stmt, err := sys.Enterprise.DB.Prepare(insertSQL)
		if err != nil {
			return err
		}
		for i := 1; i <= n; i++ {
			if _, err := stmt.Exec(i, "evt", float64(i)*0.5); err != nil {
				return err
			}
		}
		return nil
	}
	countEvents := func(sys *blueprint.System) (int64, error) {
		res, err := sys.Enterprise.DB.Query(`SELECT COUNT(*) FROM events`)
		if err != nil {
			return 0, err
		}
		return res.Rows[0][0].I, nil
	}

	// ---- Workload 1: durable write overhead ----
	memSys, err := blueprint.New(blueprint.Config{Seed: seed, ModelAccuracy: 1.0})
	if err != nil {
		return nil, err
	}
	start := time.Now()
	if err := insertN(memSys, records); err != nil {
		memSys.Close()
		return nil, err
	}
	memWall := time.Since(start)
	memSys.Close()

	sys, err := blueprint.New(blueprint.Config{Seed: seed, ModelAccuracy: 1.0, DataDir: dir})
	if err != nil {
		return nil, err
	}
	start = time.Now()
	if err := insertN(sys, records); err != nil {
		sys.Close()
		return nil, err
	}
	durWall := time.Since(start)
	t.Rows = append(t.Rows, Row{Series: "durable write overhead", Metrics: []Metric{
		{Name: "records", Value: fmt.Sprint(records)},
		{Name: "in_memory", Value: ms(memWall)},
		{Name: "durable", Value: ms(durWall)},
		{Name: "ratio", Value: fmt.Sprintf("%.2fx", durWall.Seconds()/memWall.Seconds())},
	}})

	// Warm the memo store so the restart scenario can measure reuse.
	sess, err := sys.StartSession("")
	if err != nil {
		sys.Close()
		return nil, err
	}
	coldRes, _, err := sess.ExecuteUtterance(question)
	if err != nil {
		sys.Close()
		return nil, err
	}
	sys.SimulateCrash() // flushed log, no snapshot

	// ---- Workload 2: cold-start replay of the full log ----
	sys2, err := blueprint.New(blueprint.Config{Seed: seed, ModelAccuracy: 1.0, DataDir: dir})
	if err != nil {
		return nil, err
	}
	rec2 := sys2.DurabilityStats().Recovery
	if rec2.SnapshotRestored {
		sys2.Close()
		return nil, fmt.Errorf("A8: crash restart restored a snapshot that should not exist")
	}
	if n, err := countEvents(sys2); err != nil || n != int64(records) {
		sys2.Close()
		return nil, fmt.Errorf("A8: replay recovered %d/%d rows (err %v)", n, records, err)
	}
	if rec2.ReplayedRecords < records {
		sys2.Close()
		return nil, fmt.Errorf("A8: crash restart replayed %d records, want all %d committed writes", rec2.ReplayedRecords, records)
	}
	replay := rec2.Duration
	t.Rows = append(t.Rows, Row{Series: "cold start: full-log replay", Metrics: []Metric{
		{Name: "recovery", Value: ms(replay)},
		{Name: "replayed_records", Value: fmt.Sprint(rec2.ReplayedRecords)},
		{Name: "replayed_bytes", Value: fmt.Sprint(rec2.ReplayedBytes)},
	}})
	sys2.Close() // graceful: snapshot + truncate

	// ---- Workload 3: warm start from the snapshot ----
	sys3, err := blueprint.New(blueprint.Config{Seed: seed, ModelAccuracy: 1.0, DataDir: dir})
	if err != nil {
		return nil, err
	}
	defer sys3.Close()
	rec3 := sys3.DurabilityStats().Recovery
	if !rec3.SnapshotRestored {
		return nil, fmt.Errorf("A8: graceful restart did not restore from snapshot")
	}
	if n, err := countEvents(sys3); err != nil || n != int64(records) {
		return nil, fmt.Errorf("A8: snapshot restored %d/%d rows (err %v)", n, records, err)
	}
	// The graceful Close snapshotted last, so the log has no tail to replay.
	if rec3.ReplayedRecords != 0 {
		return nil, fmt.Errorf("A8: warm start replayed %d records after restoring the snapshot, want 0", rec3.ReplayedRecords)
	}
	restore := rec3.Duration
	speedup := replay.Seconds() / restore.Seconds()
	if !Short && speedup < 5 {
		return nil, fmt.Errorf("A8: snapshot restore only %.1fx faster than full replay at %d records (want >=5x)", speedup, records)
	}
	t.Rows = append(t.Rows, Row{Series: "warm start: snapshot restore", Metrics: []Metric{
		{Name: "recovery", Value: ms(restore)},
		{Name: "vs_replay", Value: fmt.Sprintf("%.1fx", speedup)},
		{Name: "replayed_records", Value: fmt.Sprint(rec3.ReplayedRecords)},
	}})

	// ---- Workload 4: warm memo across the restart ----
	if sys3.MemoStats().Restored == 0 {
		return nil, fmt.Errorf("A8: no memo entries restored across restart")
	}
	sess3, err := sys3.StartSession("")
	if err != nil {
		return nil, err
	}
	start = time.Now()
	warmRes, _, err := sess3.ExecuteUtterance(question)
	if err != nil {
		return nil, err
	}
	warmWall := time.Since(start)
	cached := 0
	for _, sr := range warmRes.Steps {
		if sr.Cached {
			cached++
		}
	}
	ms3 := sys3.MemoStats()
	if cached == 0 || ms3.Hits == 0 {
		return nil, fmt.Errorf("A8: warm-memo loss — repeated ask after restart executed all %d steps fresh", len(warmRes.Steps))
	}
	t.Rows = append(t.Rows, Row{Series: "repeated ask after restart", Metrics: []Metric{
		{Name: "wall", Value: ms(warmWall)},
		{Name: "memo_restored", Value: fmt.Sprint(ms3.Restored)},
		{Name: "steps_cached", Value: fmt.Sprintf("%d/%d", cached, len(warmRes.Steps))},
		{Name: "hit_rate", Value: pct(ms3.HitRate())},
		{Name: "cold_steps", Value: fmt.Sprint(len(coldRes.Steps))},
	}})

	t.Notes = append(t.Notes,
		"one DataDir holds every stateful layer: relational tables+schema versions, agent/data registries, memo entries, stream history",
		"crash recovery truncates a torn final record at the last valid CRC frame instead of failing the replay",
		fmt.Sprintf("snapshot restore replaces the %d-record log replay with one sequential read; superseded segments are deleted", records),
		"restored memo entries are version-checked against the restored registries, so a registry that moved on drops stale results")
	return t, nil
}
