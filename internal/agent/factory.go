package agent

import (
	"errors"
	"fmt"
	"sync"

	"blueprint/internal/registry"
)

// Factory errors.
var (
	ErrNoConstructor = errors.New("agent: no constructor registered")
)

// Constructor builds a processor for an agent spec. Constructors receive the
// spec so one constructor can serve a family of derived agents.
type Constructor func(spec registry.AgentSpec) Processor

// Factory spawns agent instances from registry specs — the per-container
// "AgentFactory server" of §V-B. Containers in the cluster simulator each
// run one Factory.
type Factory struct {
	mu    sync.RWMutex
	reg   *registry.AgentRegistry
	ctors map[string]Constructor
}

// NewFactory creates a factory over an agent registry.
func NewFactory(reg *registry.AgentRegistry) *Factory {
	return &Factory{reg: reg, ctors: make(map[string]Constructor)}
}

// RegisterConstructor associates agent name with a constructor.
func (f *Factory) RegisterConstructor(name string, c Constructor) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.ctors[name] = c
}

// Build creates an Agent value for the named registry spec.
func (f *Factory) Build(name string) (*Agent, error) {
	spec, err := f.reg.Get(name)
	if err != nil {
		return nil, err
	}
	f.mu.RLock()
	ctor, ok := f.ctors[spec.Name]
	f.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNoConstructor, name)
	}
	return New(spec, ctor(spec)), nil
}
