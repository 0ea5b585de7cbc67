// Package cluster simulates the blueprint's production deployment (Fig. 2):
// components distributed across cluster nodes with differing compute classes
// (CPU/GPU), agents running inside containers spawned by per-container
// AgentFactory servers, "configured to scale and restart on failure" (§I).
//
// The simulator places containers on nodes by resource class and capacity,
// runs a real agent instance inside each container (attached to the shared
// stream store), injects failures, and applies a restart policy — so the
// Fig. 2 benchmarks measure actual recovery behaviour of the runtime, not a
// mock.
//
// It is an experiment fixture, which is why it lives under
// internal/experiments: Fig. 2 (figs_components.go) and the root package's
// benchmarks import it; nothing a blueprintd serves does.
package cluster

import (
	"errors"
	"fmt"
	"sync"

	"blueprint/internal/agent"
	"blueprint/internal/streams"
)

// Cluster errors.
var (
	ErrNoCapacity        = errors.New("cluster: no node with free capacity for resource class")
	ErrContainerNotFound = errors.New("cluster: container not found")
	ErrNodeExists        = errors.New("cluster: node already exists")
)

// State is a container lifecycle state.
type State string

// Container states.
const (
	Running State = "running"
	Failed  State = "failed"
	Stopped State = "stopped"
)

// Node is one cluster machine.
type Node struct {
	// Name identifies the node.
	Name string
	// Resource is the compute class offered: "cpu" or "gpu".
	Resource string
	// Capacity is the maximum number of containers.
	Capacity int
}

// Container is one scheduled agent instance.
type Container struct {
	// ID is the container identifier ("c1", "c2", ...).
	ID string
	// AgentName is the registry agent running inside.
	AgentName string
	// Node is the hosting node name.
	Node string
	// State is the lifecycle state.
	State State
	// Restarts counts restart-policy recoveries.
	Restarts int

	inst *agent.Instance
}

// Cluster simulates a deployment over a shared stream store.
type Cluster struct {
	mu         sync.Mutex
	store      *streams.Store
	factory    *agent.Factory
	session    string
	nodes      map[string]*Node
	nodeOrder  []string
	containers map[string]*Container
	ctrOrder   []string
	nextCtr    int
}

// New creates a cluster scheduling agents from factory into session.
func New(store *streams.Store, factory *agent.Factory, session string) *Cluster {
	return &Cluster{
		store:      store,
		factory:    factory,
		session:    session,
		nodes:      make(map[string]*Node),
		containers: make(map[string]*Container),
	}
}

// AddNode registers a machine.
func (c *Cluster) AddNode(name, resource string, capacity int) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.nodes[name]; ok {
		return fmt.Errorf("%w: %s", ErrNodeExists, name)
	}
	c.nodes[name] = &Node{Name: name, Resource: resource, Capacity: capacity}
	c.nodeOrder = append(c.nodeOrder, name)
	return nil
}

// load counts running containers per node (mu held).
func (c *Cluster) loadLocked() map[string]int {
	load := make(map[string]int, len(c.nodes))
	for _, ctr := range c.containers {
		if ctr.State == Running {
			load[ctr.Node]++
		}
	}
	return load
}

// Deploy places and starts one container for the named agent, honoring its
// registered deployment resource class. The least-loaded node with matching
// resource and free capacity wins (ties by name, deterministically).
func (c *Cluster) Deploy(agentName string) (*Container, error) {
	a, err := c.factory.Build(agentName)
	if err != nil {
		return nil, err
	}
	resource := a.Spec.Deployment.Resource
	if resource == "" {
		resource = "cpu"
	}
	c.mu.Lock()
	load := c.loadLocked()
	var target *Node
	for _, name := range c.nodeOrder {
		n := c.nodes[name]
		if n.Resource != resource || load[n.Name] >= n.Capacity {
			continue
		}
		if target == nil || load[n.Name] < load[target.Name] ||
			(load[n.Name] == load[target.Name] && n.Name < target.Name) {
			target = n
		}
	}
	if target == nil {
		c.mu.Unlock()
		return nil, fmt.Errorf("%w: %s for agent %s", ErrNoCapacity, resource, agentName)
	}
	c.nextCtr++
	ctr := &Container{
		ID:        fmt.Sprintf("c%d", c.nextCtr),
		AgentName: agentName,
		Node:      target.Name,
		State:     Running,
	}
	c.containers[ctr.ID] = ctr
	c.ctrOrder = append(c.ctrOrder, ctr.ID)
	c.mu.Unlock()

	inst, err := agent.Attach(c.store, c.session, a, agent.Options{})
	if err != nil {
		c.mu.Lock()
		ctr.State = Failed
		c.mu.Unlock()
		return nil, err
	}
	c.mu.Lock()
	ctr.inst = inst
	c.mu.Unlock()
	return ctr, nil
}

// Scale ensures exactly n running containers exist for the agent, deploying
// or stopping as needed. It returns the delta applied.
func (c *Cluster) Scale(agentName string, n int) (int, error) {
	running := c.Containers(agentName, Running)
	delta := 0
	for len(running)+delta < n {
		if _, err := c.Deploy(agentName); err != nil {
			return delta, err
		}
		delta++
	}
	for i := len(running) - 1; i >= 0 && len(running)+delta > n; i-- {
		if err := c.stop(running[i].ID); err != nil {
			return delta, err
		}
		delta--
	}
	return delta, nil
}

// Kill simulates a container crash: the agent instance dies and the
// container enters Failed state until Reconcile restarts it.
func (c *Cluster) Kill(containerID string) error {
	c.mu.Lock()
	ctr, ok := c.containers[containerID]
	if !ok {
		c.mu.Unlock()
		return fmt.Errorf("%w: %s", ErrContainerNotFound, containerID)
	}
	inst := ctr.inst
	ctr.inst = nil
	ctr.State = Failed
	c.mu.Unlock()
	if inst != nil {
		inst.Stop()
	}
	return nil
}

// stop gracefully stops a container (no restart).
func (c *Cluster) stop(containerID string) error {
	c.mu.Lock()
	ctr, ok := c.containers[containerID]
	if !ok {
		c.mu.Unlock()
		return fmt.Errorf("%w: %s", ErrContainerNotFound, containerID)
	}
	inst := ctr.inst
	ctr.inst = nil
	ctr.State = Stopped
	c.mu.Unlock()
	if inst != nil {
		inst.Stop()
	}
	return nil
}

// Reconcile applies the restart policy: every Failed container is restarted
// in place (same node). It returns the number of restarts performed — one
// reconcile pass models one control-loop tick.
func (c *Cluster) Reconcile() (int, error) {
	c.mu.Lock()
	var failed []*Container
	for _, id := range c.ctrOrder {
		if ctr := c.containers[id]; ctr.State == Failed {
			failed = append(failed, ctr)
		}
	}
	c.mu.Unlock()

	restarted := 0
	for _, ctr := range failed {
		a, err := c.factory.Build(ctr.AgentName)
		if err != nil {
			return restarted, err
		}
		inst, err := agent.Attach(c.store, c.session, a, agent.Options{})
		if err != nil {
			return restarted, err
		}
		c.mu.Lock()
		ctr.inst = inst
		ctr.State = Running
		ctr.Restarts++
		c.mu.Unlock()
		restarted++
	}
	return restarted, nil
}

// Containers lists containers for an agent (empty = all) in a state
// (empty = any), in deployment order.
func (c *Cluster) Containers(agentName string, state State) []*Container {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []*Container
	for _, id := range c.ctrOrder {
		ctr := c.containers[id]
		if agentName != "" && ctr.AgentName != agentName {
			continue
		}
		if state != "" && ctr.State != state {
			continue
		}
		cp := *ctr
		cp.inst = ctr.inst
		out = append(out, &cp)
	}
	return out
}

// Placement reports node -> running container count, for placement
// assertions.
func (c *Cluster) Placement() map[string]int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.loadLocked()
}

// Shutdown stops every running container.
func (c *Cluster) Shutdown() {
	c.mu.Lock()
	var insts []*agent.Instance
	for _, ctr := range c.containers {
		if ctr.inst != nil {
			insts = append(insts, ctr.inst)
			ctr.inst = nil
			ctr.State = Stopped
		}
	}
	c.mu.Unlock()
	for _, inst := range insts {
		inst.Stop()
	}
}
