package obs

import (
	"strconv"
	"strings"
	"testing"
)

// FuzzResumeToken hands Tracer.Resume any string as the trace_parent token a
// message carried, with the ask the message named: one with a span open, one
// whose spans have all ended, one never started, or none. It never panics.
// For the open ask the span it returns is parented to the id the token
// spells — or, for anything that is not a non-zero base-36 number, to the
// ask's root — charged to that ask and recorded in its session's ring and no
// other. For any other ask it returns nil and creates no ring.
func FuzzResumeToken(f *testing.F) {
	for i, seed := range []string{"", "0", "1", "zz", "-1", "+7", " 7", "7\n", "3w5e11264sgsf", "3w5e11264sgsg", "٣", strings.Repeat("z", 40)} {
		f.Add(seed, uint64(i%4))
	}
	f.Add("1", uint64(1<<63))
	f.Fuzz(func(t *testing.T, token string, pick uint64) {
		tr := newTracer(4)
		root := tr.StartRoot("live", "session", "ask")
		ended := tr.StartRoot("other", "session", "ask")
		ended.End()
		ask := [4]uint64{root.ID(), ended.ID(), 0, 1 << 40}[pick%4]
		if pick >= 4 {
			ask = pick // an id nothing minted
		}

		sp := tr.Resume(ask, token, "agent", "x")
		if ask != root.ID() {
			if sp != nil || tr.SessionCount() != 1 {
				t.Fatalf("Resume(%d, %q) for an ask with no span open = %+v, %d session rings (want nil, 1)", ask, token, sp, tr.SessionCount())
			}
			root.End()
			return
		}
		want, err := strconv.ParseUint(token, 36, 64)
		if err != nil || want == 0 {
			want = root.ID()
		}
		if sp == nil || sp.parent != want || sp.ask != root.ask {
			t.Fatalf("Resume(%d, %q) = %+v, want a span under %d charged to ask %d", ask, token, sp, want, root.ID())
		}
		sp.End()
		if live, other := len(tr.Session("live")), len(tr.Session("other")); live != 1 || other != 1 {
			t.Fatalf("after End: %d spans in its session's ring (want 1), %d in another's (want 1)", live, other)
		}
		root.End()
		if len(tr.asks) != 0 {
			t.Fatalf("%d asks open after every span ended", len(tr.asks))
		}
	})
}
