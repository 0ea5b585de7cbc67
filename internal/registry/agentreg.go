// Package registry implements the blueprint's two metadata stores: the
// agent registry (§V-C), which maps enterprise models and APIs to agents and
// serves their metadata for search and planning, and the data registry
// (§V-D), which catalogs multi-modal enterprise data sources down to table
// and collection granularity together with schemas and index inventories.
//
// Both registries support keyword search and vector search over embeddings
// derived from metadata; the agent registry additionally blends historical
// usage logs into its embeddings ("historical usage data can also be
// leveraged to compute enhanced embeddings", §V-C).
//
// # Catalog
//
// The paper describes the data registry as "similarly" registering what the
// agent registry registers, and the code has the shared part once: catalog
// (catalog.go) owns the lock, the entries and their registration order, the
// embedder and vector index, the mutation hook the durability adapter logs
// through, the change hooks the memo layer invalidates through,
// register/get/list/len, keyword and vector search with the keyword
// fallback, and the restore loop of snapshots and replayed WAL records.
// AgentRegistry and DataRegistry embed one each and add only what is theirs:
// usage-blended embeddings, Derive, Deregister and a version that moves only
// when the spec does; the asset hierarchy a version bump propagates along
// (affectedLocked), Touch, grants (governance.go) and the Import readers. A
// change to ranking, hook order or restore is made in the catalog and
// reaches both (TestBothRegistriesMatchBruteForce checks both against one
// reference).
package registry

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"time"

	"blueprint/internal/obs"
)

// Process-wide registry instruments: identity-changing mutations (Register,
// Update, Derive, Deregister — the set the durability adapter logs) and
// data-version touches (bumped on every relational write, counted apart so
// the mutation counter stays a deploy-rate signal rather than a DML echo).
var (
	mRegistryMutations = obs.Default.Counter("blueprint_registry_mutations_total", "agent and data registry mutations (register, update, derive, deregister)")
	mRegistryTouches   = obs.Default.Counter("blueprint_registry_touches_total", "data-asset version touches from data writes")
)

// Common registry errors.
var (
	ErrAgentExists   = errors.New("registry: agent already registered")
	ErrAgentNotFound = errors.New("registry: agent not found")
	ErrAssetExists   = errors.New("registry: data asset already registered")
	ErrAssetNotFound = errors.New("registry: data asset not found")
)

// ParamSpec describes one input or output parameter of an agent.
type ParamSpec struct {
	// Name is the parameter identifier (e.g. "JOBSEEKER_DATA").
	Name string `json:"name"`
	// Type is a logical type tag: "text", "json", "rows", "profile", ...
	Type string `json:"type"`
	// Description documents the parameter for search and planning.
	Description string `json:"description,omitempty"`
	// Optional parameters may be left unbound in plans.
	Optional bool `json:"optional,omitempty"`
	// Default is used when an optional parameter is unbound.
	Default any `json:"default,omitempty"`
}

// ListenRule is the stream inclusion/exclusion rule under which an agent
// self-triggers (§V-B: "monitoring designated tags within streams, defined
// by inclusion and exclusion rules").
type ListenRule struct {
	IncludeTags []string `json:"include_tags,omitempty"`
	ExcludeTags []string `json:"exclude_tags,omitempty"`
}

// Deployment captures containerization metadata (§V-C: docker images and
// deployment configurations) consumed by the cluster simulator.
type Deployment struct {
	// Image is the container image name.
	Image string `json:"image,omitempty"`
	// Resource is the compute class required: "cpu" or "gpu".
	Resource string `json:"resource,omitempty"`
	// Replicas is the desired instance count.
	Replicas int `json:"replicas,omitempty"`
	// Workers is the default of agent.Options.Workers: how many invocations
	// of one (agent, session) pair run at once.
	Workers int `json:"workers,omitempty"`
}

// QoSProfile summarizes an agent's expected quality of service, used by the
// optimizer for multi-objective planning (§IV).
type QoSProfile struct {
	// CostPerCall in dollars.
	CostPerCall float64 `json:"cost_per_call"`
	// Latency is the expected per-call latency.
	Latency time.Duration `json:"latency"`
	// Accuracy in [0,1].
	Accuracy float64 `json:"accuracy"`
	// Freshness is the QoS hint bounding how long a memoized result of a
	// Cacheable agent stays servable (0 = as long as the agent version and
	// the sources it Reads are unchanged). It becomes the memo-entry TTL.
	Freshness time.Duration `json:"freshness,omitempty"`
}

// AgentSpec is the registry record for one agent.
type AgentSpec struct {
	// Name is the unique agent identifier (e.g. "JOBMATCHER").
	Name string `json:"name"`
	// Description documents the agent's capability.
	Description string `json:"description"`
	// Version distinguishes derived/updated agents.
	Version int `json:"version"`
	// Inputs and Outputs declare the agent's parameters.
	Inputs  []ParamSpec `json:"inputs,omitempty"`
	Outputs []ParamSpec `json:"outputs,omitempty"`
	// Listen configures decentralized (tag-triggered) activation.
	Listen ListenRule `json:"listen,omitempty"`
	// Deployment carries containerization metadata.
	Deployment Deployment `json:"deployment,omitempty"`
	// QoS is the expected quality of service.
	QoS QoSProfile `json:"qos,omitempty"`
	// Cacheable declares that invocations are pure functions of their
	// inputs plus the data sources named in Reads, so the coordinator may
	// memoize step results keyed by (Name, Version, inputs) and reuse them
	// across plans and sessions until the version moves, a source in Reads
	// is invalidated, or the QoS Freshness hint expires.
	Cacheable bool `json:"cacheable,omitempty"`
	// Reads names the registered data assets the agent's results depend on;
	// a version bump of any of them invalidates the agent's memoized
	// results.
	Reads []string `json:"reads,omitempty"`
	// Properties holds free-form configuration (triggering policy etc.).
	Properties map[string]any `json:"properties,omitempty"`
}

// searchText builds the text embedded/searched for this agent.
func (s AgentSpec) searchText() string {
	var b strings.Builder
	b.WriteString(s.Name)
	b.WriteByte(' ')
	b.WriteString(s.Description)
	for _, p := range s.Inputs {
		fmt.Fprintf(&b, " input %s %s %s", p.Name, p.Type, p.Description)
	}
	for _, p := range s.Outputs {
		fmt.Fprintf(&b, " output %s %s %s", p.Name, p.Type, p.Description)
	}
	return b.String()
}

// AgentHit is one agent search result.
type AgentHit struct {
	Spec  AgentSpec
	Score float64
}

// AgentRegistry stores agent metadata and serves search and planning. It is
// a catalog of AgentSpecs plus what only agents have: usage logs blended into
// the embedding, derivation, removal and a version that moves only when the
// spec does.
type AgentRegistry struct {
	*catalog[AgentSpec, AgentHit, AgentMutation]
	// Guarded by the catalog's lock.
	usage    map[string][]string // recent task texts routed to the agent
	usageCnt map[string]int
}

// AgentMutation describes one durable agent-registry mutation: an upserted
// spec (Register, Update, Derive) or a removal (Deregister). It is the
// payload the durability adapter logs to the WAL.
type AgentMutation struct {
	Put    *AgentSpec `json:"put,omitempty"`
	Remove string     `json:"remove,omitempty"`
}

// NewAgentRegistry creates an empty agent registry.
func NewAgentRegistry() *AgentRegistry {
	r := &AgentRegistry{usage: make(map[string][]string), usageCnt: make(map[string]int)}
	r.catalog = newCatalog(&catalog[AgentSpec, AgentHit, AgentMutation]{
		noun: "agent", errExists: ErrAgentExists, errNotFound: ErrAgentNotFound,
		name:  func(s AgentSpec) string { return s.Name },
		text:  AgentSpec.searchText,
		hit:   func(s AgentSpec, score float64) AgentHit { return AgentHit{Spec: s, Score: score} },
		score: func(h AgentHit) float64 { return h.Score },
	})
	r.embed = r.usageBlended
	return r
}

// SetMutationHook installs the hook invoked (outside the registry lock) after
// every successful mutation — registration, update, derivation, removal. The
// durability adapter uses it to log mutations to the shared WAL; at most one
// hook is held (last wins). Touch-style version bumps are not mutations in
// this sense: they are reproduced by relational DML replay.
func (r *AgentRegistry) SetMutationHook(fn func(AgentMutation)) { r.setMutationHook(fn) }

// OnChange registers a hook invoked (outside the registry lock) whenever an
// agent's identity moves: a version bump on Update, a Derive, or a
// Deregister. The memoization layer subscribes here to drop cached results
// of the changed agent.
func (r *AgentRegistry) OnChange(fn func(agentName string)) { r.onChange(fn) }

// Register adds a new agent. The name must be unused.
func (r *AgentRegistry) Register(spec AgentSpec) error {
	if spec.Version == 0 {
		spec.Version = 1
	}
	err := r.register(spec)
	if err == nil {
		r.mutated(AgentMutation{Put: &spec})
	}
	return err
}

// Update replaces an existing agent's metadata, bumping its version. A
// re-registration of a deep-equal spec is a no-op: the version stays put,
// so memo keys and derived-agent chains are not invalidated spuriously
// (idempotent deploys re-register everything on every rollout).
func (r *AgentRegistry) Update(spec AgentSpec) error {
	changed, stored, err := r.update(spec)
	if err == nil && changed {
		r.mutated(AgentMutation{Put: &stored})
		r.notifyChange(spec.Name)
	}
	return err
}

func (r *AgentRegistry) update(spec AgentSpec) (changed bool, stored AgentSpec, err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	key, old, err := r.getLocked(spec.Name)
	if err != nil {
		return false, AgentSpec{}, err
	}
	spec.Version = old.Version
	if reflect.DeepEqual(spec, old) {
		return false, AgentSpec{}, nil
	}
	spec.Version = old.Version + 1
	return true, spec, r.putLocked(key, spec)
}

// Derive registers a new agent based on an existing one with a new name and
// description override ("derive new agents from existing ones", §V-C).
func (r *AgentRegistry) Derive(base, name, description string, mutate func(*AgentSpec)) (AgentSpec, error) {
	spec, err := r.derive(base, name, description, mutate)
	if err == nil {
		r.mutated(AgentMutation{Put: &spec})
		r.notifyChange(name)
	}
	return spec, err
}

func (r *AgentRegistry) derive(base, name, description string, mutate func(*AgentSpec)) (AgentSpec, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	_, spec, err := r.getLocked(base)
	if err != nil {
		return AgentSpec{}, err
	}
	spec.Name = name
	if description != "" {
		spec.Description = description
	}
	spec.Version = 1
	if mutate != nil {
		mutate(&spec)
	}
	key := strings.ToLower(name)
	if _, exists := r.entries[key]; exists {
		return AgentSpec{}, fmt.Errorf("%w: %s", ErrAgentExists, name)
	}
	if err := r.putLocked(key, spec); err != nil {
		return AgentSpec{}, err
	}
	return spec, nil
}

// Deregister removes an agent.
func (r *AgentRegistry) Deregister(name string) error {
	err := r.deregister(name)
	if err == nil {
		r.mutated(AgentMutation{Remove: name})
		r.notifyChange(name)
	}
	return err
}

func (r *AgentRegistry) deregister(name string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	key, _, err := r.getLocked(name)
	if err != nil {
		return err
	}
	delete(r.usage, key)
	delete(r.usageCnt, key)
	r.removeLocked(key)
	return nil
}

// Get returns one agent's spec.
func (r *AgentRegistry) Get(name string) (AgentSpec, error) { return r.get(name) }

// List returns all specs in registration order.
func (r *AgentRegistry) List() []AgentSpec { return r.list(nil) }

// Len reports the number of registered agents.
func (r *AgentRegistry) Len() int { return r.len() }

// RecordUsage logs that the agent served the given task text; the last 32
// texts are blended into the agent's embedding with 20% weight.
func (r *AgentRegistry) RecordUsage(name, taskText string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	key, spec, err := r.getLocked(name)
	if err != nil {
		return err
	}
	logs := append(r.usage[key], taskText)
	if len(logs) > 32 {
		logs = logs[len(logs)-32:]
	}
	r.usage[key] = logs
	r.usageCnt[key]++
	return r.putLocked(key, spec)
}

// UsageCount reports how many times RecordUsage was called for the agent.
func (r *AgentRegistry) UsageCount(name string) int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.usageCnt[strings.ToLower(name)]
}

// usageBlended is the agent registry's embedding (the catalog's embed, so
// called with the lock held): the spec's metadata, with the agent's usage
// logs — when it has any — blended in at 20% weight.
func (r *AgentRegistry) usageBlended(key string, spec AgentSpec) []float64 {
	meta := spec.searchText()
	logs := r.usage[key]
	if len(logs) == 0 {
		return r.embedder.Embed(meta)
	}
	return r.embedder.EmbedWeighted(
		[]string{meta, strings.Join(logs, " ")},
		[]float64{0.8, 0.2},
	)
}

// SearchKeyword returns agents whose metadata contains every query token,
// ranked by number of token occurrences.
func (r *AgentRegistry) SearchKeyword(query string, k int) []AgentHit {
	return r.searchKeyword(query, k)
}

// SearchVector returns the k agents nearest to the query embedding.
func (r *AgentRegistry) SearchVector(query string, k int) []AgentHit {
	return r.searchVector(query, k)
}

// FindForTask is the planner's entry point: vector search with a keyword
// fallback, returning at most k candidates.
func (r *AgentRegistry) FindForTask(taskText string, k int) []AgentHit {
	return r.find(taskText, k)
}
