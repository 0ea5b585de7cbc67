package registry

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"blueprint/internal/docstore"
	"blueprint/internal/graphstore"
	"blueprint/internal/relational"
)

// SourceKind enumerates data modalities (§V-D: "documents, relational
// databases, graph databases, and key-value stores"; LLMs also act as data
// sources, §V-G).
type SourceKind string

// Data source kinds.
const (
	KindRelational SourceKind = "relational"
	KindDocument   SourceKind = "document"
	KindGraph      SourceKind = "graph"
	KindKV         SourceKind = "kv"
	KindLLM        SourceKind = "llm"
)

// Level situates an asset in the enterprise data hierarchy (§V-D:
// "lakehouse, lake, source system, database, and table").
type Level string

// Asset levels.
const (
	LevelLakehouse  Level = "lakehouse"
	LevelDatabase   Level = "database"
	LevelTable      Level = "table"
	LevelCollection Level = "collection"
	LevelGraph      Level = "graph"
	LevelModel      Level = "model"
)

// ColumnMeta describes one column/field of an asset.
type ColumnMeta struct {
	Name        string `json:"name"`
	Type        string `json:"type"`
	Description string `json:"description,omitempty"`
}

// DataAsset is a registry record at some hierarchy level.
type DataAsset struct {
	// Name uniquely identifies the asset ("hr.jobs").
	Name string `json:"name"`
	// Kind is the modality of the owning source.
	Kind SourceKind `json:"kind"`
	// Level situates the asset in the hierarchy.
	Level Level `json:"level"`
	// Parent names the containing asset (database for a table, etc.).
	Parent string `json:"parent,omitempty"`
	// Description documents the asset for discovery.
	Description string `json:"description"`
	// Connection is the logical connection string / handle name.
	Connection string `json:"connection,omitempty"`
	// Columns lists fields/columns for tables and collections.
	Columns []ColumnMeta `json:"columns,omitempty"`
	// Indexes lists available indexes ("available indices", §V-D).
	Indexes []string `json:"indexes,omitempty"`
	// Rows is the row/document/node count, for planner cost estimation.
	Rows int `json:"rows,omitempty"`
	// Version counts content/metadata generations of the asset: Register
	// starts it at 1 and every Update or Touch bumps it. Memoized results
	// of agents reading the asset are invalidated on each bump.
	Version int `json:"version,omitempty"`
	// QoS is the expected per-query quality of service of the source.
	QoS QoSProfile `json:"qos,omitempty"`
	// Tags are free-form labels.
	Tags []string `json:"tags,omitempty"`
}

func (a DataAsset) searchText() string {
	var b strings.Builder
	b.WriteString(a.Name)
	b.WriteByte(' ')
	b.WriteString(string(a.Kind))
	b.WriteByte(' ')
	b.WriteString(a.Description)
	for _, c := range a.Columns {
		fmt.Fprintf(&b, " %s %s %s", c.Name, c.Type, c.Description)
	}
	for _, t := range a.Tags {
		b.WriteByte(' ')
		b.WriteString(t)
	}
	return b.String()
}

// AssetHit is one discovery result.
type AssetHit struct {
	Asset DataAsset
	Score float64
}

// DataRegistry catalogs enterprise data assets and serves discovery. It is a
// catalog of DataAssets plus what only data has: the asset hierarchy a
// version bump propagates along, Touch, access grants and the Import readers.
type DataRegistry struct {
	*catalog[DataAsset, AssetHit, AssetMutation]
	grants map[string]map[string]bool // asset -> allowed agents (nil = public); guarded by the catalog's lock
}

// AssetMutation describes one durable data-registry mutation: an upserted
// asset (Register, Update). Touch is deliberately absent — data-version
// bumps are reproduced by relational DML replay, and logging them would
// double the WAL write rate for no recovery value.
type AssetMutation struct {
	Put *DataAsset `json:"put,omitempty"`
}

// NewDataRegistry creates an empty data registry.
func NewDataRegistry() *DataRegistry {
	return &DataRegistry{grants: make(map[string]map[string]bool), catalog: newCatalog(&catalog[DataAsset, AssetHit, AssetMutation]{
		noun: "asset", errExists: ErrAssetExists, errNotFound: ErrAssetNotFound,
		name:  func(a DataAsset) string { return a.Name },
		text:  DataAsset.searchText,
		hit:   func(a DataAsset, score float64) AssetHit { return AssetHit{Asset: a, Score: score} },
		score: func(h AssetHit) float64 { return h.Score },
	})}
}

// SetMutationHook installs the hook invoked (outside the registry lock)
// after every successful Register/Update. At most one hook is held (last
// wins); the durability adapter uses it to log mutations to the shared WAL.
func (r *DataRegistry) SetMutationHook(fn func(AssetMutation)) { r.setMutationHook(fn) }

// OnChange registers a hook invoked (outside the registry lock) whenever an
// asset's version bumps — Update or Touch. The memoization layer subscribes
// here to drop cached results of agents that read the asset.
func (r *DataRegistry) OnChange(fn func(assetName string)) { r.onChange(fn) }

// Register adds an asset.
func (r *DataRegistry) Register(a DataAsset) error {
	if a.Version == 0 {
		a.Version = 1
	}
	err := r.register(a)
	if err == nil {
		r.mutated(AssetMutation{Put: &a})
	}
	return err
}

// Update replaces an asset's metadata (e.g. refreshed row counts), bumping
// its version and notifying OnChange subscribers for the asset and its
// whole hierarchy slice (see affectedLocked): agents typically declare
// their Reads at database level, so a table-level change must reach them.
func (r *DataRegistry) Update(a DataAsset) error {
	affected, err := r.update(&a)
	if err == nil {
		r.mutated(AssetMutation{Put: &a})
	}
	for _, name := range affected {
		r.notifyChange(name)
	}
	return err
}

func (r *DataRegistry) update(a *DataAsset) ([]string, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	key, old, err := r.getLocked(a.Name)
	if err != nil {
		return nil, err
	}
	a.Version = old.Version + 1
	err = r.putLocked(key, *a)
	return r.affectedLocked(a.Name), err
}

// Touch bumps an asset's version without changing its metadata — the
// signal that the underlying data changed (rows inserted, documents
// rewritten) and memoized results reading it are stale. Subscribers are
// notified for the asset, its ancestors and its descendants.
func (r *DataRegistry) Touch(name string) error {
	r.mu.Lock()
	key, a, err := r.getLocked(name)
	if err != nil {
		r.mu.Unlock()
		return err
	}
	a.Version++
	r.entries[key] = a // same metadata, so the indexed embedding stands
	affected := r.affectedLocked(a.Name)
	r.mu.Unlock()
	mRegistryTouches.Inc()
	for _, n := range affected {
		r.notifyChange(n)
	}
	return nil
}

// affectedLocked resolves a change of the named asset across the hierarchy
// (§V-D: lakehouse > database > table): the asset itself, its ancestor
// chain (a table change means the containing database changed too), and
// every descendant (a database-level touch conservatively means any
// contained table may have changed). Readers that declared any level are
// therefore invalidated regardless of which level was bumped.
func (r *DataRegistry) affectedLocked(name string) []string {
	seen := map[string]bool{}
	var out []string
	add := func(n string) bool {
		k := strings.ToLower(n)
		if n == "" || seen[k] {
			return false
		}
		seen[k] = true
		out = append(out, n)
		return true
	}
	add(name)
	// Ancestors (Parent chain; seen guards against malformed cycles).
	cur := name
	for {
		a, ok := r.entries[strings.ToLower(cur)]
		if !ok || a.Parent == "" || !add(a.Parent) {
			break
		}
		cur = a.Parent
	}
	// Descendants, breadth-first over the Parent relation.
	queue := []string{name}
	for len(queue) > 0 {
		p := queue[0]
		queue = queue[1:]
		for _, k := range r.order {
			a := r.entries[k]
			if strings.EqualFold(a.Parent, p) && add(a.Name) {
				queue = append(queue, a.Name)
			}
		}
	}
	return out
}

// Get returns one asset.
func (r *DataRegistry) Get(name string) (DataAsset, error) { return r.get(name) }

// List returns assets in registration order, optionally filtered by level
// and kind (empty = any).
func (r *DataRegistry) List(level Level, kind SourceKind) []DataAsset {
	return r.list(func(a DataAsset) bool {
		return (level == "" || a.Level == level) && (kind == "" || a.Kind == kind)
	})
}

// Children returns assets whose Parent is the given asset, sorted by name.
func (r *DataRegistry) Children(parent string) []DataAsset {
	out := r.list(func(a DataAsset) bool { return strings.EqualFold(a.Parent, parent) })
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Len reports the number of registered assets.
func (r *DataRegistry) Len() int { return r.len() }

// SearchKeyword ranks assets containing every query token.
func (r *DataRegistry) SearchKeyword(query string, k int) []AssetHit {
	return r.searchKeyword(query, k)
}

// SearchVector returns the k assets nearest to the query embedding.
func (r *DataRegistry) SearchVector(query string, k int) []AssetHit {
	return r.searchVector(query, k)
}

// Discover is the data planner's entry point: vector search with keyword
// fallback.
func (r *DataRegistry) Discover(query string, k int) []AssetHit { return r.find(query, k) }

// ImportRelational registers a relational DB and each of its tables under
// the given database asset name, capturing schemas, row counts and index
// inventories from the engine catalog.
func (r *DataRegistry) ImportRelational(dbName, description, connection string, db *relational.DB) error {
	if err := r.Register(DataAsset{
		Name: dbName, Kind: KindRelational, Level: LevelDatabase,
		Description: description, Connection: connection,
	}); err != nil {
		return err
	}
	for _, t := range db.Tables() {
		cols := make([]ColumnMeta, 0, len(t.Schema.Columns))
		for _, c := range t.Schema.Columns {
			cols = append(cols, ColumnMeta{Name: c.Name, Type: c.Type.String()})
		}
		var idx []string
		for _, ix := range t.Indexes {
			idx = append(idx, fmt.Sprintf("%s(%s,%s)", ix.Name, ix.Column, ix.Kind))
		}
		if err := r.Register(DataAsset{
			Name: dbName + "." + t.Name, Kind: KindRelational, Level: LevelTable,
			Parent: dbName, Description: "table " + t.Name + " in " + dbName,
			Connection: connection, Columns: cols, Indexes: idx, Rows: t.Rows,
			QoS: QoSProfile{Latency: 2 * time.Millisecond, Accuracy: 1.0},
		}); err != nil {
			return err
		}
	}
	return nil
}

// ImportDocstore registers a document store's collections.
func (r *DataRegistry) ImportDocstore(storeName, description, connection string, s *docstore.Store) error {
	if err := r.Register(DataAsset{
		Name: storeName, Kind: KindDocument, Level: LevelDatabase,
		Description: description, Connection: connection,
	}); err != nil {
		return err
	}
	for _, c := range s.Collections() {
		cols := make([]ColumnMeta, 0, len(c.Fields))
		for _, f := range c.Fields {
			cols = append(cols, ColumnMeta{Name: f, Type: "json"})
		}
		if err := r.Register(DataAsset{
			Name: storeName + "." + c.Name, Kind: KindDocument, Level: LevelCollection,
			Parent: storeName, Description: "collection " + c.Name + " in " + storeName,
			Connection: connection, Columns: cols, Indexes: c.Indexed, Rows: c.Docs,
			QoS: QoSProfile{Latency: 3 * time.Millisecond, Accuracy: 1.0},
		}); err != nil {
			return err
		}
	}
	return nil
}

// ImportGraph registers a graph source.
func (r *DataRegistry) ImportGraph(name, description, connection string, g *graphstore.Graph) error {
	nodes, edges := g.Stats()
	return r.Register(DataAsset{
		Name: name, Kind: KindGraph, Level: LevelGraph,
		Description: description, Connection: connection,
		Rows: nodes, Tags: []string{fmt.Sprintf("edges:%d", edges)},
		QoS: QoSProfile{Latency: 2 * time.Millisecond, Accuracy: 1.0},
	})
}

// RegisterLLMSource registers a language model as a data source ("cities in
// the SF bay area might be obtained from an OpenAI model", §V-G).
func (r *DataRegistry) RegisterLLMSource(name, description string, qos QoSProfile) error {
	return r.Register(DataAsset{
		Name: name, Kind: KindLLM, Level: LevelModel,
		Description: description, QoS: qos,
		Tags: []string{"general-knowledge", "text"},
	})
}
