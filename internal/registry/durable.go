package registry

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
)

// Durable adapts the two registries to the durability engine's Loggable
// interface. Snapshots capture the full catalog; between snapshots, every
// identity-changing mutation (Register, Update, Derive, Deregister) is
// logged as a WAL record once AttachLog installs the mutation hooks — so a
// crash no longer loses post-snapshot registry changes. Touch-style data
// version bumps are deliberately NOT logged: they are a deterministic echo
// of relational DML, which replays from its own subsystem log and re-fires
// the OnWrite -> Touch path; logging them here would double the WAL write
// rate for no recovery value.
//
// Ordering contract: AttachLog must run after Engine.Recover. Boot-time
// registrations happen before durability wiring and are deterministic
// (every start re-registers the same base set), so they need no records;
// replayed records must not re-log themselves.
type Durable struct {
	Agents *AgentRegistry
	Data   *DataRegistry
}

// durableImage is the snapshot payload.
type durableImage struct {
	Agents []AgentSpec `json:"agents"`
	Assets []DataAsset `json:"assets"`
}

// mutationRecord is the WAL payload: exactly one of the two mutation kinds.
type mutationRecord struct {
	Agent *AgentMutation `json:"agent,omitempty"`
	Asset *AssetMutation `json:"asset,omitempty"`
}

// AttachLog installs mutation hooks on both registries that append every
// identity-changing mutation to the WAL through append (an Engine.Logger
// Append). Call after recovery; see the ordering contract above.
func (d Durable) AttachLog(append func([]byte) error) {
	log := func(rec mutationRecord) {
		if buf, err := json.Marshal(rec); err == nil {
			_ = append(buf)
		}
	}
	d.Agents.SetMutationHook(func(m AgentMutation) { log(mutationRecord{Agent: &m}) })
	d.Data.SetMutationHook(func(m AssetMutation) { log(mutationRecord{Asset: &m}) })
}

// Apply replays one logged mutation: upserts reuse the restore path
// (versions preserved exactly as recorded, no change notifications — the
// memo subsystem revalidates restored entries itself), removals delete
// quietly. A removal of an already-absent agent is a no-op, keeping replay
// tolerant of records that straddle snapshot boundaries.
func (d Durable) Apply(p []byte) error {
	var rec mutationRecord
	if err := json.Unmarshal(p, &rec); err != nil {
		return fmt.Errorf("registry: decode WAL record: %w", err)
	}
	switch {
	case rec.Agent != nil && rec.Agent.Put != nil:
		d.Agents.restore([]AgentSpec{*rec.Agent.Put})
	case rec.Agent != nil && rec.Agent.Remove != "":
		if err := d.Agents.deregister(rec.Agent.Remove); err != nil && !errors.Is(err, ErrAgentNotFound) {
			return err
		}
	case rec.Asset != nil && rec.Asset.Put != nil:
		d.Data.restore([]DataAsset{*rec.Asset.Put})
	default:
		return errors.New("registry: empty WAL record")
	}
	return nil
}

// Snapshot serializes both registries. It implements durability.Loggable.
func (d Durable) Snapshot(w io.Writer) error {
	img := durableImage{Agents: d.Agents.List(), Assets: d.Data.List("", "")}
	return json.NewEncoder(w).Encode(img)
}

// Restore upserts the snapshot's specs and assets, preserving versions and
// registration order for pre-existing names. No change hooks fire: the
// memo layer revalidates against the restored versions itself, and firing
// invalidations here would wrongly drop entries about to be restored.
func (d Durable) Restore(r io.Reader) error {
	var img durableImage
	if err := json.NewDecoder(r).Decode(&img); err != nil {
		return fmt.Errorf("registry: decode snapshot: %w", err)
	}
	d.Agents.restore(img.Agents)
	d.Data.restore(img.Assets)
	return nil
}
