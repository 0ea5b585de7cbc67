package resilience

import "time"

// staleFactor scales an agent's declared freshness into the bound of a
// degraded serve: an entry memoized under a 30s freshness hint may be served
// degraded until it is 2m old.
const staleFactor = 4

// ServeStale is the graceful-degradation rule, applied when an agent's
// breaker is open or the daemon is shedding: it reports whether a memoized
// entry of the given age may be served instead of executing. The freshness
// declared in the agent's QoS profile (registry.QoSProfile.Freshness) is the
// tolerance: a stale serve is freshness-valid while the entry's age is within
// staleFactor times it. An agent that declared no freshness bound (0 = valid
// until invalidated) is always servable from a resident entry — invalidation
// already removed anything version-stale.
func ServeStale(freshness, age time.Duration) bool {
	return freshness <= 0 || age <= staleFactor*freshness
}
