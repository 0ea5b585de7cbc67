package agent

import (
	"context"
	"testing"
	"time"

	"blueprint/internal/registry"
	"blueprint/internal/streams"
)

// BenchmarkReport is one AGENT_DONE report appended to a session's control
// stream, as an invocation ends: "outputs" rides a step's two outputs in the
// report (an invocation that named no reply stream), "usage" carries the
// usage alone. Run with -benchmem: the report's directive is all it adds to
// the append, with no map and no boxed number.
func BenchmarkReport(b *testing.B) {
	store := streams.NewStore()
	b.Cleanup(func() { store.Close() })
	in, err := Attach(store, testSession, New(registry.AgentSpec{
		Name:    "ECHO",
		Inputs:  []registry.ParamSpec{{Name: "TEXT", Type: "text"}},
		Outputs: []registry.ParamSpec{{Name: "TEXT", Type: "text"}},
	}, func(context.Context, Invocation) (Outputs, error) { return Outputs{}, nil }), Options{})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(in.Stop)
	st := in.seatFor(testSession) // as the pair's first message makes it
	inv := Invocation{Session: testSession, InvocationID: "plan-1-s1-1", Ask: 7}
	usage := Usage{Cost: 0.001, Latency: 1234567 * time.Nanosecond, Accuracy: 0.95}
	for _, c := range []struct {
		name    string
		outputs map[string]any
	}{
		{"outputs", map[string]any{"TEXT": "Summary: 3 jobs match.", "ROWS": 3}},
		{"usage", nil},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for range b.N {
				in.report(st, inv, usage, c.outputs, nil)
			}
		})
	}
}
