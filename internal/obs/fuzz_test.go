package obs

import (
	"strconv"
	"strings"
	"testing"
)

// FuzzResumeToken hands Tracer.Resume any string as the trace_parent token a
// message carried. It never panics; the span it returns is parented to the id
// the token spells, or — for anything that is not a non-zero base-36 number —
// to the session's active root, as StartUnder would; and it records into the
// ring of the session it was resumed in and no other, creating none.
func FuzzResumeToken(f *testing.F) {
	for _, seed := range []string{"", "0", "1", "zz", "-1", "+7", " 7", "7\n", "3w5e11264sgsf", "3w5e11264sgsg", "٣", strings.Repeat("z", 40)} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, token string) {
		tr := newTracer(4)
		root := tr.StartRoot("live", "session", "ask")
		tr.StartRoot("other", "session", "ask").End()

		want, err := strconv.ParseUint(token, 36, 64)
		if err != nil || want == 0 {
			want = root.ID()
		}
		sp := tr.Resume("live", token, "agent", "x")
		if sp == nil || sp.parent != want {
			t.Fatalf("Resume(%q) = %+v, want a span under %d (root %d)", token, sp, want, root.ID())
		}
		if idle := tr.Resume("idle", token, "agent", "x"); idle != nil || tr.SessionCount() != 2 {
			t.Fatalf("Resume(%q) in a session nobody opened = %+v, %d session rings (want 2)", token, idle, tr.SessionCount())
		}
		sp.End()
		if live, other := len(tr.Session("live")), len(tr.Session("other")); live != 1 || other != 1 {
			t.Fatalf("after End: %d spans in its session's ring (want 1), %d in another's (want 1)", live, other)
		}
		root.End()
	})
}
