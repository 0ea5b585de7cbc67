package cluster

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"blueprint/internal/agent"
	"blueprint/internal/registry"
	"blueprint/internal/streams"
)

const sess = "session:cluster"

func newCluster(t testing.TB) (*Cluster, *streams.Store) {
	t.Helper()
	store := streams.NewStore()
	t.Cleanup(func() { store.Close() })
	reg := registry.NewAgentRegistry()
	for _, spec := range []registry.AgentSpec{
		{
			Name: "CPUAGENT", Description: "cpu-bound worker",
			Inputs:     []registry.ParamSpec{{Name: "X"}},
			Outputs:    []registry.ParamSpec{{Name: "Y"}},
			Deployment: registry.Deployment{Resource: "cpu", Workers: 2},
		},
		{
			Name: "GPUMODEL", Description: "gpu-bound model",
			Inputs:     []registry.ParamSpec{{Name: "X"}},
			Outputs:    []registry.ParamSpec{{Name: "Y"}},
			Deployment: registry.Deployment{Resource: "gpu", Workers: 1},
		},
	} {
		if err := reg.Register(spec); err != nil {
			t.Fatal(err)
		}
	}
	f := agent.NewFactory(reg)
	proc := func(spec registry.AgentSpec) agent.Processor {
		return func(ctx context.Context, inv agent.Invocation) (agent.Outputs, error) {
			return agent.Outputs{Values: map[string]any{"Y": inv.Inputs["X"]}}, nil
		}
	}
	f.RegisterConstructor("CPUAGENT", proc)
	f.RegisterConstructor("GPUMODEL", proc)

	c := New(store, f, sess)
	t.Cleanup(c.Shutdown)
	if err := c.AddNode("cpu-1", "cpu", 4); err != nil {
		t.Fatal(err)
	}
	if err := c.AddNode("cpu-2", "cpu", 4); err != nil {
		t.Fatal(err)
	}
	if err := c.AddNode("gpu-1", "gpu", 2); err != nil {
		t.Fatal(err)
	}
	return c, store
}

func TestPlacementByResource(t *testing.T) {
	c, _ := newCluster(t)
	ctr, err := c.Deploy("GPUMODEL")
	if err != nil {
		t.Fatal(err)
	}
	if ctr.Node != "gpu-1" {
		t.Fatalf("gpu agent on %s", ctr.Node)
	}
	ctr2, err := c.Deploy("CPUAGENT")
	if err != nil {
		t.Fatal(err)
	}
	if ctr2.Node != "cpu-1" && ctr2.Node != "cpu-2" {
		t.Fatalf("cpu agent on %s", ctr2.Node)
	}
}

func TestLeastLoadedSpread(t *testing.T) {
	c, _ := newCluster(t)
	seen := map[string]int{}
	for i := 0; i < 4; i++ {
		ctr, err := c.Deploy("CPUAGENT")
		if err != nil {
			t.Fatal(err)
		}
		seen[ctr.Node]++
	}
	if seen["cpu-1"] != 2 || seen["cpu-2"] != 2 {
		t.Fatalf("spread = %v", seen)
	}
}

func TestCapacityExhaustion(t *testing.T) {
	c, _ := newCluster(t)
	for i := 0; i < 2; i++ {
		if _, err := c.Deploy("GPUMODEL"); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := c.Deploy("GPUMODEL"); !errors.Is(err, ErrNoCapacity) {
		t.Fatalf("err = %v", err)
	}
}

func TestDuplicateNode(t *testing.T) {
	c, _ := newCluster(t)
	if err := c.AddNode("cpu-1", "cpu", 1); !errors.Is(err, ErrNodeExists) {
		t.Fatalf("err = %v", err)
	}
}

func TestKillAndReconcileRestarts(t *testing.T) {
	c, store := newCluster(t)
	ctr, err := c.Deploy("CPUAGENT")
	if err != nil {
		t.Fatal(err)
	}
	// Verify the agent actually serves before the kill.
	if err := agent.Execute(store, sess, "CPUAGENT", map[string]any{"X": 1}, "", "pre"); err != nil {
		t.Fatal(err)
	}
	if d := agent.AwaitDone(store, sess, "pre"); d == nil || d.Op != agent.OpAgentDone {
		t.Fatalf("pre-kill execution failed: %+v", d)
	}

	if err := c.Kill(ctr.ID); err != nil {
		t.Fatal(err)
	}
	if got := c.Containers("CPUAGENT", Failed); len(got) != 1 {
		t.Fatalf("failed containers = %v", got)
	}
	n, err := c.Reconcile()
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("restarts = %d", n)
	}
	got := c.Containers("CPUAGENT", Running)
	if len(got) != 1 || got[0].Restarts != 1 || got[0].Node != ctr.Node {
		t.Fatalf("restarted = %+v", got)
	}
	// Serves again after restart.
	if err := agent.Execute(store, sess, "CPUAGENT", map[string]any{"X": 2}, "", "post"); err != nil {
		t.Fatal(err)
	}
	if d := agent.AwaitDone(store, sess, "post"); d == nil || d.Op != agent.OpAgentDone {
		t.Fatalf("post-restart execution failed: %+v", d)
	}
}

func TestKillUnknown(t *testing.T) {
	c, _ := newCluster(t)
	if err := c.Kill("nope"); !errors.Is(err, ErrContainerNotFound) {
		t.Fatalf("err = %v", err)
	}
}

func TestScaleUpAndDown(t *testing.T) {
	c, _ := newCluster(t)
	delta, err := c.Scale("CPUAGENT", 3)
	if err != nil {
		t.Fatal(err)
	}
	if delta != 3 || len(c.Containers("CPUAGENT", Running)) != 3 {
		t.Fatalf("scale up delta=%d", delta)
	}
	delta, err = c.Scale("CPUAGENT", 1)
	if err != nil {
		t.Fatal(err)
	}
	if delta != -2 || len(c.Containers("CPUAGENT", Running)) != 1 {
		t.Fatalf("scale down delta=%d running=%d", delta, len(c.Containers("CPUAGENT", Running)))
	}
	// Scale to same count is a no-op.
	delta, err = c.Scale("CPUAGENT", 1)
	if err != nil || delta != 0 {
		t.Fatalf("no-op scale delta=%d err=%v", delta, err)
	}
}

func TestScaleBeyondCapacity(t *testing.T) {
	c, _ := newCluster(t)
	if _, err := c.Scale("CPUAGENT", 20); !errors.Is(err, ErrNoCapacity) {
		t.Fatalf("err = %v", err)
	}
	// Partial scale-out still counted.
	if got := len(c.Containers("CPUAGENT", Running)); got != 8 {
		t.Fatalf("running after partial scale = %d", got)
	}
}

func TestScaledOutServiceSharesWork(t *testing.T) {
	c, store := newCluster(t)
	if _, err := c.Scale("CPUAGENT", 3); err != nil {
		t.Fatal(err)
	}
	// All replicas listen for EXECUTE directives; each directive is handled
	// by all (broadcast semantics), so N replicas yield N DONE reports.
	// Verify work completes while replicas run concurrently.
	for i := 0; i < 5; i++ {
		id := fmt.Sprintf("w%d", i)
		if err := agent.Execute(store, sess, "CPUAGENT", map[string]any{"X": i}, "", id); err != nil {
			t.Fatal(err)
		}
		if d := agent.AwaitDone(store, sess, id); d == nil || d.Op != agent.OpAgentDone {
			t.Fatalf("execution %s failed", id)
		}
	}
}

func TestPlacementSnapshotAndNodes(t *testing.T) {
	c, _ := newCluster(t)
	if _, err := c.Deploy("CPUAGENT"); err != nil {
		t.Fatal(err)
	}
	p := c.Placement()
	if p["cpu-1"] != 1 || len(p) != 1 {
		t.Fatalf("placement = %v, want the first node by name", p)
	}
	// One more of each class fills the other two nodes: all three registered.
	for _, name := range []string{"CPUAGENT", "GPUMODEL"} {
		if _, err := c.Deploy(name); err != nil {
			t.Fatal(err)
		}
	}
	if p := c.Placement(); p["cpu-1"] != 1 || p["cpu-2"] != 1 || p["gpu-1"] != 1 {
		t.Fatalf("placement = %v, want one container on each of the three nodes", p)
	}
}

func TestMTTRUnderRepeatedFailures(t *testing.T) {
	c, _ := newCluster(t)
	ctr, err := c.Deploy("CPUAGENT")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := c.Kill(ctr.ID); err != nil {
			t.Fatal(err)
		}
		start := time.Now()
		if n, err := c.Reconcile(); err != nil || n != 1 {
			t.Fatalf("reconcile %d restarted %d, err %v", i, n, err)
		}
		if time.Since(start) > time.Second {
			t.Fatal("reconcile unexpectedly slow")
		}
	}
	got := c.Containers("CPUAGENT", Running)
	if len(got) != 1 || got[0].Restarts != 5 {
		t.Fatalf("container = %+v", got)
	}
}
