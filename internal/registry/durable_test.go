package registry

import (
	"bytes"
	"testing"
)

func TestDurableSnapshotRestorePreservesVersions(t *testing.T) {
	agents := NewAgentRegistry()
	data := NewDataRegistry()
	spec := AgentSpec{Name: "NL2Q", Description: "compile NL to SQL", Cacheable: true, Reads: []string{"hr"}}
	if err := agents.Register(spec); err != nil {
		t.Fatal(err)
	}
	// Two real updates bump NL2Q to version 3.
	for _, desc := range []string{"v2 desc", "v3 desc"} {
		spec.Description = desc
		if err := agents.Update(spec); err != nil {
			t.Fatal(err)
		}
	}
	if err := data.Register(DataAsset{Name: "hr", Kind: KindRelational, Level: LevelDatabase, Description: "hr db"}); err != nil {
		t.Fatal(err)
	}
	if err := data.Register(DataAsset{Name: "hr.jobs", Kind: KindRelational, Level: LevelTable, Parent: "hr", Description: "jobs"}); err != nil {
		t.Fatal(err)
	}
	if err := data.Touch("hr.jobs"); err != nil { // hr.jobs v2, hr v2 (hierarchy)
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := (Durable{Agents: agents, Data: data}.Snapshot(&buf)); err != nil {
		t.Fatal(err)
	}

	// A fresh boot re-registers the base set at version 1, then restores.
	agents2 := NewAgentRegistry()
	data2 := NewDataRegistry()
	if err := agents2.Register(AgentSpec{Name: "NL2Q", Description: "compile NL to SQL"}); err != nil {
		t.Fatal(err)
	}
	notified := 0
	agents2.OnChange(func(string) { notified++ })
	if err := (Durable{Agents: agents2, Data: data2}.Restore(&buf)); err != nil {
		t.Fatal(err)
	}
	got, err := agents2.Get("nl2q")
	if err != nil {
		t.Fatal(err)
	}
	if got.Version != 3 || got.Description != "v3 desc" {
		t.Fatalf("restored spec = v%d %q, want v3 \"v3 desc\"", got.Version, got.Description)
	}
	if notified != 0 {
		t.Fatalf("restore fired %d change notifications, want 0", notified)
	}
	jobs, err := data2.Get("hr.jobs")
	if err != nil {
		t.Fatal(err)
	}
	if jobs.Version != 2 {
		t.Fatalf("restored hr.jobs version = %d, want 2", jobs.Version)
	}
	if hits := data2.Discover("jobs table", 3); len(hits) == 0 {
		t.Fatal("restored assets are not searchable")
	}
}

func TestDurableApplyRejectsEmptyRecords(t *testing.T) {
	d := Durable{Agents: NewAgentRegistry(), Data: NewDataRegistry()}
	if err := d.Apply([]byte("{}")); err == nil {
		t.Fatal("Apply must reject a record carrying no mutation")
	}
	if err := d.Apply([]byte("not json")); err == nil {
		t.Fatal("Apply must reject undecodable records")
	}
}

// TestDurableMutationLogRoundTrip drives the full WAL path in-memory:
// AttachLog captures mutation records, Apply replays them into fresh
// registries, and the result matches the mutated originals — versions
// included, with no change notifications during replay.
func TestDurableMutationLogRoundTrip(t *testing.T) {
	agents := NewAgentRegistry()
	data := NewDataRegistry()
	var wal [][]byte
	Durable{Agents: agents, Data: data}.AttachLog(func(p []byte) error {
		wal = append(wal, append([]byte(nil), p...))
		return nil
	})

	spec := AgentSpec{Name: "NL2Q", Description: "compile NL to SQL", Cacheable: true}
	if err := agents.Register(spec); err != nil {
		t.Fatal(err)
	}
	spec.Description = "v2 desc"
	if err := agents.Update(spec); err != nil {
		t.Fatal(err)
	}
	if _, err := agents.Derive("NL2Q", "NL2Q_FAST", "derived", nil); err != nil {
		t.Fatal(err)
	}
	if err := agents.Register(AgentSpec{Name: "DOOMED", Description: "to be removed"}); err != nil {
		t.Fatal(err)
	}
	if err := agents.Deregister("DOOMED"); err != nil {
		t.Fatal(err)
	}
	if err := data.Register(DataAsset{Name: "hr.jobs", Kind: KindRelational, Level: LevelTable, Description: "jobs"}); err != nil {
		t.Fatal(err)
	}
	if err := data.Touch("hr.jobs"); err != nil { // version bumps are NOT logged
		t.Fatal(err)
	}
	// register + update + derive + register + deregister + asset register = 6.
	if len(wal) != 6 {
		t.Fatalf("wal records = %d, want 6 (Touch must not log)", len(wal))
	}

	agents2 := NewAgentRegistry()
	data2 := NewDataRegistry()
	notified := 0
	agents2.OnChange(func(string) { notified++ })
	replay := Durable{Agents: agents2, Data: data2}
	for _, rec := range wal {
		if err := replay.Apply(rec); err != nil {
			t.Fatal(err)
		}
	}
	if notified != 0 {
		t.Fatalf("replay fired %d change notifications, want 0", notified)
	}
	got, err := agents2.Get("NL2Q")
	if err != nil {
		t.Fatal(err)
	}
	if got.Version != 2 || got.Description != "v2 desc" {
		t.Fatalf("replayed NL2Q = v%d %q, want v2 \"v2 desc\"", got.Version, got.Description)
	}
	if _, err := agents2.Get("NL2Q_FAST"); err != nil {
		t.Fatal("derived agent missing after replay")
	}
	if _, err := agents2.Get("DOOMED"); err == nil {
		t.Fatal("deregistered agent survived replay")
	}
	if _, err := data2.Get("hr.jobs"); err != nil {
		t.Fatal("asset missing after replay")
	}
	// Replaying the removal again must stay a no-op (records can straddle
	// snapshot boundaries).
	if err := replay.Apply(wal[4]); err != nil {
		t.Fatalf("re-applied removal errored: %v", err)
	}
	// A spec logged while Deployment still held image, resource and replicas
	// replays: the keys no field reads are skipped, workers is kept.
	old := `{"agent":{"put":{"name":"LEGACY","description":"logged with container metadata","version":2,` +
		`"deployment":{"image":"legacy:1","resource":"gpu","replicas":3,"workers":2}}}}`
	if err := replay.Apply([]byte(old)); err != nil {
		t.Fatalf("a record with the old deployment keys failed to replay: %v", err)
	}
	legacy, err := agents2.Get("LEGACY")
	if err != nil {
		t.Fatal(err)
	}
	if legacy.Version != 2 || legacy.Deployment.Workers != 2 {
		t.Fatalf("replayed LEGACY = v%d with %d workers, want v2 with 2", legacy.Version, legacy.Deployment.Workers)
	}
}
