package blueprint

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"blueprint/internal/registry"
	"blueprint/internal/resilience"
	"blueprint/internal/session"
	"blueprint/internal/streams"
)

// streamsMessage builds a simple data message for the torn-WAL test.
func streamsMessage(stream, payload string) streams.Message {
	return streams.Message{Stream: stream, Sender: "tester", Payload: payload}
}

// newDurableSystem boots a System over dir with durability on.
func newDurableSystem(t testing.TB, dir string) *System {
	t.Helper()
	sys, err := New(Config{ModelAccuracy: 1.0, DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

func TestDurableRestartRecoversTablesRegistriesAndStreams(t *testing.T) {
	dir := t.TempDir()
	sys := newDurableSystem(t, dir)
	db := sys.Enterprise.DB

	if _, err := db.Exec(`CREATE TABLE audit (id INT, note TEXT)`); err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 25; i++ {
		if _, err := db.Exec(`INSERT INTO audit VALUES (?, ?)`, i, fmt.Sprintf("n%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := db.Exec(`DELETE FROM jobs WHERE id = 1`); err != nil {
		t.Fatal(err)
	}
	var jobsAfter int
	if res, err := db.Query(`SELECT COUNT(*) FROM jobs`); err != nil {
		t.Fatal(err)
	} else {
		jobsAfter = int(res.Rows[0][0].I)
	}
	// A registry change that must survive via snapshot.
	spec, err := sys.AgentRegistry.Get("SUMMARIZER")
	if err != nil {
		t.Fatal(err)
	}
	spec.Description = spec.Description + " (tuned)"
	if err := sys.AgentRegistry.Update(spec); err != nil {
		t.Fatal(err)
	}
	wantVersion := spec.Version + 1
	// Stream traffic via a session.
	sess, err := sys.StartSession("")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Ask("How many jobs are in San Francisco?", 10*time.Second); err != nil {
		t.Fatal(err)
	}
	sessID := sess.ID
	flowLen := len(sess.Flow())
	sys.Close() // graceful: snapshot + clean log close

	sys2 := newDurableSystem(t, dir)
	defer sys2.Close()
	rec := sys2.DurabilityStats().Recovery
	if !rec.SnapshotRestored {
		t.Fatal("graceful restart did not restore from snapshot")
	}
	// Close snapshotted last, so the log has no tail to replay.
	if rec.ReplayedRecords != 0 {
		t.Fatalf("graceful restart replayed %d records after the snapshot, want 0", rec.ReplayedRecords)
	}
	res, err := sys2.Enterprise.DB.Query(`SELECT COUNT(*) FROM audit`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].I != 25 {
		t.Fatalf("audit rows after restart = %d, want 25", res.Rows[0][0].I)
	}
	res, err = sys2.Enterprise.DB.Query(`SELECT COUNT(*) FROM jobs`)
	if err != nil {
		t.Fatal(err)
	}
	if int(res.Rows[0][0].I) != jobsAfter {
		t.Fatalf("jobs rows after restart = %d, want %d (DELETE lost?)", res.Rows[0][0].I, jobsAfter)
	}
	got, err := sys2.AgentRegistry.Get("SUMMARIZER")
	if err != nil {
		t.Fatal(err)
	}
	if got.Version != wantVersion {
		t.Fatalf("SUMMARIZER version after restart = %d, want %d", got.Version, wantVersion)
	}
	// The previous session's stream history is part of the recovered state.
	hist := sys2.Store.History(sessID)
	if len(hist) < flowLen {
		t.Fatalf("recovered %d stream messages for %s, want >= %d", len(hist), sessID, flowLen)
	}
}

// A session recovered from the log keeps its id and history to itself: after
// a restart the next auto-named session is a new one that holds none of the
// recovered conversation, while naming the recovered id reopens it on
// purpose.
func TestDurableRestartNewSessionDoesNotTakeARecoveredID(t *testing.T) {
	dir := t.TempDir()
	sys := newDurableSystem(t, dir)
	sess, err := sys.StartSession("")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Ask("How many jobs are in San Francisco?", 10*time.Second); err != nil {
		t.Fatal(err)
	}
	old := sess.ID
	sys.Close()

	sys2 := newDurableSystem(t, dir)
	defer sys2.Close()
	recovered := len(sys2.Store.History(old))
	if recovered == 0 {
		t.Fatalf("nothing of %s recovered", old)
	}
	fresh, err := sys2.StartSession("")
	if err != nil {
		t.Fatal(err)
	}
	if fresh.ID == old {
		t.Fatalf("a new session took the recovered id %s", old)
	}
	if n := fresh.DisplayLen(); n != 0 {
		t.Errorf("a new session shows %d display messages, want 0", n)
	}
	for _, m := range fresh.History() {
		if strings.HasPrefix(m.Stream, old+":") {
			t.Fatalf("%s's history holds %s's message %+v", fresh.ID, old, m)
		}
	}
	if got := len(sys2.Store.History(old)); got != recovered {
		t.Errorf("%s holds %d messages after a new session started, %d recovered", old, got, recovered)
	}
	reopened, err := sys2.StartSession(old)
	if err != nil {
		t.Fatal(err)
	}
	if reopened.DisplayLen() == 0 {
		t.Errorf("reopening %s by name lost its display history", old)
	}
}

func TestDurableRestartServesRepeatedAskFromMemo(t *testing.T) {
	dir := t.TempDir()
	sys := newDurableSystem(t, dir)
	sess, err := sys.StartSession("")
	if err != nil {
		t.Fatal(err)
	}
	const q = "How many jobs are in San Francisco?"
	res1, _, err := sess.ExecuteUtterance(q)
	if err != nil {
		t.Fatal(err)
	}
	want := len(res1.Steps)
	if want == 0 {
		t.Fatal("cold ask executed no steps")
	}
	sys.Close()

	sys2 := newDurableSystem(t, dir)
	defer sys2.Close()
	if sys2.MemoStats().Restored == 0 {
		t.Fatal("no memo entries restored after graceful restart")
	}
	sess2, err := sys2.StartSession("")
	if err != nil {
		t.Fatal(err)
	}
	res2, _, err := sess2.ExecuteUtterance(q)
	if err != nil {
		t.Fatal(err)
	}
	cached := 0
	for _, sr := range res2.Steps {
		if sr.Cached {
			cached++
		}
	}
	if cached == 0 {
		t.Fatalf("repeated ask after restart hit no memo entries (%d steps)", len(res2.Steps))
	}
	if sys2.MemoStats().Hits == 0 {
		t.Fatal("memo stats show no hits after restart")
	}
}

func TestDurableCrashReplayWithoutSnapshot(t *testing.T) {
	dir := t.TempDir()
	sys := newDurableSystem(t, dir)
	db := sys.Enterprise.DB
	if _, err := db.Exec(`CREATE TABLE crashy (id INT)`); err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 40; i++ {
		if _, err := db.Exec(`INSERT INTO crashy VALUES (?)`, i); err != nil {
			t.Fatal(err)
		}
	}
	sys.SimulateCrash() // no snapshot: next open must replay the log

	sys2 := newDurableSystem(t, dir)
	defer sys2.Close()
	st := sys2.DurabilityStats()
	if st.Recovery.SnapshotRestored {
		t.Fatal("crash restart claimed a snapshot restore")
	}
	// Every committed statement is in the log: the CREATE and 40 INSERTs.
	if st.Recovery.ReplayedRecords < 41 {
		t.Fatalf("crash restart replayed %d records, want >= the 41 committed statements", st.Recovery.ReplayedRecords)
	}
	res, err := sys2.Enterprise.DB.Query(`SELECT COUNT(*) FROM crashy`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].I != 40 {
		t.Fatalf("crashy rows after replay = %d, want 40", res.Rows[0][0].I)
	}
}

// A session's membership records recover as they were written, and a closed
// session recovers as nothing: after a crash, the session stream of a session
// the crash shut down reads back message for message, the names still one
// string payload, and Members replays them to the same answer; a session
// closed by hand, its records written first, has no stream left, live or
// recovered, and reopening its id finds no member.
func TestDurableCrashRecoversMembershipRecords(t *testing.T) {
	dir := t.TempDir()
	sys := newDurableSystem(t, dir)
	closed, err := sys.StartSession("")
	if err != nil {
		t.Fatal(err)
	}
	if err := closed.RemoveAgent(StandardAgents[0]); err != nil {
		t.Fatal(err)
	}
	if msgs, err := sys.Store.ReadAll(session.SessionStream(closed.ID)); err != nil || len(msgs) != 2 {
		t.Fatalf("%s's session stream holds %d records (%v), want ADD_AGENT and REMOVE_AGENT", closed.ID, len(msgs), err)
	}
	closed.Close()
	if left := sys.Store.List(closed.ID); len(left) != 0 {
		t.Fatalf("%s's streams outlive its Close: %+v", closed.ID, left)
	}
	open, err := sys.StartSession("")
	if err != nil {
		t.Fatal(err)
	}
	sys.SimulateCrash() // shuts open down: its REMOVE_AGENT is logged, its streams kept
	written, err := sys.Store.ReadAll(session.SessionStream(open.ID))
	if err != nil {
		t.Fatal(err)
	}
	if n := len(written); n != 2 {
		t.Fatalf("%s's session stream holds %d records, want ADD_AGENT and the shutdown's REMOVE_AGENT", open.ID, n)
	}
	members := open.Members()

	sys2 := newDurableSystem(t, dir)
	defer sys2.Close()
	if left := sys2.Store.List(closed.ID); len(left) != 0 {
		t.Errorf("%s's streams recovered after its Close: %+v", closed.ID, left)
	}
	msgs, err := sys2.Store.ReadAll(session.SessionStream(open.ID))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(msgs, written) {
		t.Errorf("%s's session stream recovered as\n%+v\nwritten as\n%+v", open.ID, msgs, written)
	}
	for _, m := range msgs {
		if _, ok := m.Payload.(string); !ok {
			t.Errorf("%s: a recovered record's names are a %T, want a string", open.ID, m.Payload)
		}
	}
	for id, want := range map[string][]string{open.ID: members, closed.ID: nil} {
		reopened, err := sys2.Sessions.Create(id)
		if err != nil {
			t.Fatal(err)
		}
		if got := reopened.Members(); !slices.Equal(got, want) {
			t.Errorf("%s: recovered members = %v, want %v", id, got, want)
		}
	}
}

// TestDurableCrashReplaysRegistryMutations: registry mutations were
// snapshot-only before the mutation WAL — a crash between snapshots lost
// them. Now every Register/Update/Derive/Deregister appends a WAL record,
// so a crash restart (no snapshot) must replay them.
func TestDurableCrashReplaysRegistryMutations(t *testing.T) {
	dir := t.TempDir()
	sys := newDurableSystem(t, dir)

	spec, err := sys.AgentRegistry.Get("SUMMARIZER")
	if err != nil {
		t.Fatal(err)
	}
	spec.Description = spec.Description + " (tuned)"
	if err := sys.AgentRegistry.Update(spec); err != nil {
		t.Fatal(err)
	}
	wantVersion := spec.Version + 1
	if _, err := sys.AgentRegistry.Derive("SUMMARIZER", "SUMMARIZER_FAST", "derived for crash test", nil); err != nil {
		t.Fatal(err)
	}
	if err := sys.DataRegistry.Register(registry.DataAsset{
		Name: "scratch.crash_notes", Kind: registry.KindRelational,
		Level: registry.LevelTable, Description: "crash-test asset",
	}); err != nil {
		t.Fatal(err)
	}
	sys.SimulateCrash() // no snapshot: registry state must come from the log

	sys2 := newDurableSystem(t, dir)
	defer sys2.Close()
	if sys2.DurabilityStats().Recovery.SnapshotRestored {
		t.Fatal("crash restart claimed a snapshot restore")
	}
	got, err := sys2.AgentRegistry.Get("SUMMARIZER")
	if err != nil {
		t.Fatal(err)
	}
	if got.Version != wantVersion {
		t.Fatalf("SUMMARIZER version after crash = %d, want %d (mutation lost)", got.Version, wantVersion)
	}
	if _, err := sys2.AgentRegistry.Get("SUMMARIZER_FAST"); err != nil {
		t.Fatalf("derived agent lost in crash: %v", err)
	}
	if _, err := sys2.DataRegistry.Get("scratch.crash_notes"); err != nil {
		t.Fatalf("registered asset lost in crash: %v", err)
	}
}

// Concurrent writes to one row and to one agent reach the log in the order
// they were applied: after a crash, recovery holds the value and the agent
// version the live process ended with. A latency fault on half of the log
// appends widens the window between a change and the append of its record.
func TestDurableLogKeepsWriteOrder(t *testing.T) {
	const rounds, writers, writes = 50, 4, 10
	inj := resilience.NewInjector(1, resilience.Rule{
		Site: resilience.SiteDurability, Kind: resilience.KindLatency,
		Probability: 0.5, Latency: 200 * time.Microsecond,
	})
	defer resilience.Deactivate()
	rowV := func(sys *System) int64 {
		res, err := sys.Enterprise.DB.Query(`SELECT v FROM c WHERE id = 1`)
		if err != nil {
			t.Fatal(err)
		}
		return res.Rows[0][0].I
	}
	var rowsDiverged, agentsDiverged int
	for round := 0; round < rounds; round++ {
		dir := t.TempDir()
		sys := newDurableSystem(t, dir)
		db := sys.Enterprise.DB
		for _, s := range []string{`CREATE TABLE c (id INT, v INT)`, `INSERT INTO c VALUES (1, 0)`} {
			if _, err := db.Exec(s); err != nil {
				t.Fatal(err)
			}
		}
		resilience.Activate(inj)
		var wg sync.WaitGroup
		for w := 0; w < writers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 1; i <= writes; i++ {
					if _, err := db.Exec(`UPDATE c SET v = ? WHERE id = 1`, w*writes+i); err != nil {
						t.Error(err)
					}
					spec, err := sys.AgentRegistry.Get("SUMMARIZER")
					if err == nil {
						spec.Description = fmt.Sprintf("writer %d, write %d", w, i)
						err = sys.AgentRegistry.Update(spec)
					}
					if err != nil {
						t.Error(err)
					}
				}
			}()
		}
		wg.Wait()
		resilience.Deactivate()
		liveV := rowV(sys)
		liveAgent, err := sys.AgentRegistry.Get("SUMMARIZER")
		if err != nil {
			t.Fatal(err)
		}
		sys.SimulateCrash()

		sys2 := newDurableSystem(t, dir)
		if rowV(sys2) != liveV {
			rowsDiverged++
		}
		if got, err := sys2.AgentRegistry.Get("SUMMARIZER"); err != nil || got.Version != liveAgent.Version || got.Description != liveAgent.Description {
			agentsDiverged++
		}
		sys2.Close()
	}
	if rowsDiverged > 0 || agentsDiverged > 0 {
		t.Fatalf("recovery differs from the live process: the row in %d and the agent in %d of %d rounds", rowsDiverged, agentsDiverged, rounds)
	}
}

// TestDurableTornWALRecoversPrefix is the system-level crash-safety
// property test: kill the log at a random byte offset and the recovered
// relational rows and stream messages must be an exact prefix of the
// committed history.
func TestDurableTornWALRecoversPrefix(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	const n = 30
	for trial := 0; trial < 5; trial++ {
		dir := t.TempDir()
		sys := newDurableSystem(t, dir)
		db := sys.Enterprise.DB
		if _, err := db.Exec(`CREATE TABLE seqd (id INT)`); err != nil {
			t.Fatal(err)
		}
		for i := 1; i <= n; i++ {
			if _, err := db.Exec(`INSERT INTO seqd VALUES (?)`, i); err != nil {
				t.Fatal(err)
			}
			if _, err := sys.Store.Publish(
				streamsMessage("torn-test", fmt.Sprintf("m%d", i)),
			); err != nil {
				t.Fatal(err)
			}
		}
		sys.SimulateCrash()

		segs, err := filepath.Glob(filepath.Join(dir, "wal-*.log"))
		if err != nil || len(segs) == 0 {
			t.Fatalf("no wal segments: %v %v", segs, err)
		}
		last := segs[len(segs)-1]
		fi, err := os.Stat(last)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.Truncate(last, rng.Int63n(fi.Size()+1)); err != nil {
			t.Fatal(err)
		}

		sys2 := newDurableSystem(t, dir)
		rows := 0
		if res, err := sys2.Enterprise.DB.Query(`SELECT id FROM seqd ORDER BY id`); err == nil {
			rows = len(res.Rows)
			for i, row := range res.Rows {
				if row[0].I != int64(i+1) {
					t.Fatalf("trial %d: relational rows are not a prefix at %d: %v", trial, i, row[0].I)
				}
			}
		}
		msgs, _ := sys2.Store.ReadAll("torn-test")
		for i, m := range msgs {
			if m.PayloadString() != fmt.Sprintf("m%d", i+1) {
				t.Fatalf("trial %d: stream messages are not a prefix at %d: %q", trial, i, m.PayloadString())
			}
		}
		if rows > n || len(msgs) > n {
			t.Fatalf("trial %d: recovered more than committed (rows=%d msgs=%d)", trial, rows, len(msgs))
		}
		sys2.Close()
	}
}
