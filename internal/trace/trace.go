// Package trace reconstructs and verifies message flows from the stream
// store's history — the observability payoff of making orchestration
// explicit on streams (§V-A: "enhancing observability"). The Fig. 9 and
// Fig. 10 integration tests assert their exact sender sequences with this
// package, and the benchmark harness uses it to report per-component
// message counts.
package trace

import (
	"fmt"
	"strings"

	"blueprint/internal/obs"
	"blueprint/internal/streams"
)

// Step is one observed message in a flow.
type Step struct {
	// TS is the global logical timestamp.
	TS int64
	// Sender is the producing component.
	Sender string
	// Stream is the carrying stream.
	Stream string
	// Kind is the message kind.
	Kind streams.Kind
	// Op is the control directive op ("" for data/event messages).
	Op string
	// Agent is the directive's target agent, when addressed.
	Agent string
	// Tags are the message tags.
	Tags []string
	// Payload is a short rendering of the payload.
	Payload string
}

// Flow extracts the ordered steps of a session from store history.
func Flow(store *streams.Store, session string) []Step {
	msgs := store.History(session)
	out := make([]Step, 0, len(msgs))
	for _, m := range msgs {
		s := Step{
			TS:     m.TS,
			Sender: m.Sender,
			Stream: m.Stream,
			Kind:   m.Kind,
			Tags:   m.Tags,
		}
		if m.Directive != nil {
			s.Op = m.Directive.Op
			s.Agent = m.Directive.Agent
		}
		// Rune-safe: payloads carry user text, and a byte slice at 60
		// could split a multi-byte UTF-8 character.
		s.Payload = obs.Truncate(m.PayloadString(), 60)
		out = append(out, s)
	}
	return out
}

// Matcher matches one flow step. Zero fields match anything.
type Matcher struct {
	// Sender must equal the step sender when set.
	Sender string
	// Op must equal the control op when set.
	Op string
	// Agent must equal the directive target when set.
	Agent string
	// Tag must be present among the step tags when set.
	Tag string
	// Kind must match when set (use -1 / KindAny for any).
	Kind streams.Kind
	// AnyKind disables kind matching.
	AnyKind bool
}

// Matches reports whether the matcher accepts the step.
func (m Matcher) Matches(s Step) bool {
	if m.Sender != "" && s.Sender != m.Sender {
		return false
	}
	if m.Op != "" && s.Op != m.Op {
		return false
	}
	if m.Agent != "" && s.Agent != m.Agent {
		return false
	}
	if m.Tag != "" {
		found := false
		for _, t := range s.Tags {
			if t == m.Tag {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	if !m.AnyKind && s.Kind != m.Kind {
		return false
	}
	return true
}

// MatchSequence reports whether the pattern occurs as an ordered
// subsequence of the flow and returns the matched step indices.
func MatchSequence(flow []Step, pattern []Matcher) ([]int, bool) {
	idx := make([]int, 0, len(pattern))
	pi := 0
	for si := 0; si < len(flow) && pi < len(pattern); si++ {
		if pattern[pi].Matches(flow[si]) {
			idx = append(idx, si)
			pi++
		}
	}
	return idx, pi == len(pattern)
}

// Senders returns the distinct senders in order of first appearance —
// the "U -> AE -> TC -> S" summary of Fig. 9.
func Senders(flow []Step) []string {
	seen := map[string]bool{}
	var out []string
	for _, s := range flow {
		if s.Sender == "" || seen[s.Sender] {
			continue
		}
		seen[s.Sender] = true
		out = append(out, s.Sender)
	}
	return out
}

// CountBySender tallies messages per sender.
func CountBySender(flow []Step) map[string]int {
	out := map[string]int{}
	for _, s := range flow {
		out[s.Sender]++
	}
	return out
}

// Render prints the flow one step per line (debugging aid and bpctl
// output).
func Render(flow []Step) string {
	var b strings.Builder
	for _, s := range flow {
		fmt.Fprintf(&b, "[%4d] %-16s %-8s %-28s", s.TS, s.Sender, s.Kind, s.Stream)
		if s.Op != "" {
			fmt.Fprintf(&b, " %s", s.Op)
			if s.Agent != "" {
				fmt.Fprintf(&b, "(%s)", s.Agent)
			}
		}
		if len(s.Tags) > 0 {
			fmt.Fprintf(&b, " tags=%v", s.Tags)
		}
		if s.Payload != "" {
			fmt.Fprintf(&b, " %q", s.Payload)
		}
		b.WriteByte('\n')
	}
	return b.String()
}
