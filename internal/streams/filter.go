package streams

// Filter selects messages for a subscription. The zero value matches every
// message. Filters implement the inclusion/exclusion rules the paper assigns
// to agents monitoring streams (§V-B: "defined by inclusion and exclusion
// rules").
type Filter struct {
	// Streams restricts matching to the named streams (empty = any stream).
	Streams []string
	// Session restricts matching to one session scope. A message matches if
	// its session equals Session or is a sub-scope of it ("session:1:profile"
	// matches filter "session:1", mirroring §V-E scoping).
	Session string
	// IncludeTags requires at least one of these tags (empty = any tags).
	IncludeTags []string
	// ExcludeTags rejects messages carrying any of these tags.
	ExcludeTags []string
	// Kinds restricts matching to the listed kinds (empty = any kind).
	Kinds []Kind
	// Senders restricts matching to the listed senders (empty = any sender).
	Senders []string
	// ExcludeSenders rejects messages from the listed senders; agents use it
	// to ignore their own output streams.
	ExcludeSenders []string
	// Ops restricts matching to messages whose directive carries one of the
	// listed operations (empty = any operation). A message without a
	// directive never matches a filter that sets Ops.
	Ops []string
	// Agent restricts matching to directives addressed to the named agent:
	// Directive.Agent equals it, or is empty — a directive that names no
	// agent is a broadcast to all of them. A message without a directive
	// never matches a filter that sets Agent. The consumer still checks the
	// directive it receives; the selector only spares it the messages that
	// were never meant for it.
	Agent string
}

// Matches reports whether msg passes the filter.
func (f *Filter) Matches(msg *Message) bool {
	if len(f.Streams) > 0 && !containsString(f.Streams, msg.Stream) {
		return false
	}
	if f.Session != "" && !scopeContains(f.Session, msg.Session) {
		return false
	}
	if len(f.Kinds) > 0 {
		ok := false
		for _, k := range f.Kinds {
			if msg.Kind == k {
				ok = true
				break
			}
		}
		if !ok {
			return false
		}
	}
	if len(f.Ops) > 0 || f.Agent != "" {
		d := msg.Directive
		if d == nil {
			return false
		}
		if len(f.Ops) > 0 && !containsString(f.Ops, d.Op) {
			return false
		}
		if f.Agent != "" && d.Agent != "" && d.Agent != f.Agent {
			return false
		}
	}
	if len(f.Senders) > 0 && !containsString(f.Senders, msg.Sender) {
		return false
	}
	if len(f.ExcludeSenders) > 0 && containsString(f.ExcludeSenders, msg.Sender) {
		return false
	}
	for _, t := range f.ExcludeTags {
		if msg.HasTag(t) {
			return false
		}
	}
	if len(f.IncludeTags) > 0 {
		ok := false
		for _, t := range f.IncludeTags {
			if msg.HasTag(t) {
				ok = true
				break
			}
		}
		if !ok {
			return false
		}
	}
	return true
}

func containsString(xs []string, s string) bool {
	for _, x := range xs {
		if x == s {
			return true
		}
	}
	return false
}

// scopeContains reports whether scope child equals parent or is nested under
// it using ":"-separated hierarchical scopes (e.g. "session:1:profile" is
// contained in "session:1").
func scopeContains(parent, child string) bool {
	if parent == child {
		return true
	}
	if len(child) > len(parent) && child[:len(parent)] == parent && child[len(parent)] == ':' {
		return true
	}
	return false
}
