package resilience

import (
	"context"
	"errors"
	"math/rand"
	"sync"
	"time"
)

// The retry policy: how many attempts a step gets and how backoff grows
// between them. It generalizes the coordinator's seed-era "one replan retry".
// The scheduler charges every backoff against the plan's remaining latency
// budget, so retries consume the deadline they are trying to save — a plan
// never retries itself past its own SLO. Jitter decorrelates synchronized
// retry storms.
const (
	retryAttempts = 3                      // total tries of one step
	retryBase     = 10 * time.Millisecond  // the delay before the first retry
	retryMax      = 250 * time.Millisecond // the cap the doubling delay stops at
	retryJitter   = 0.2                    // each delay is randomized by ±20 %
)

// Backoff returns the delay before retrying a step whose attempt number
// attempt (1-based) failed, and false when that attempt was the last one the
// policy allows. Jitter draws from the package RNG, which is safe for
// concurrent use.
func Backoff(attempt int) (time.Duration, bool) {
	if attempt < 1 || attempt >= retryAttempts {
		return 0, false
	}
	d := min(retryBase<<(attempt-1), retryMax)
	return time.Duration(float64(d) * (1 + retryJitter*(2*jitterFloat()-1))), true
}

// jitterRNG backs Backoff's jitter. Retry jitter exists to decorrelate
// concurrent retries, so a process-wide locked source is exactly right.
var (
	jitterMu  sync.Mutex
	jitterRng = rand.New(rand.NewSource(1))
)

func jitterFloat() float64 {
	jitterMu.Lock()
	defer jitterMu.Unlock()
	return jitterRng.Float64()
}

// Retryable classifies an error as transient. Injected faults, step
// timeouts and explicitly-marked transient errors retry; context
// cancellation, breaker rejections and shed decisions never do (retrying a
// cancelled plan wastes the budget of live ones; retrying into an open
// breaker or a shedding governor amplifies the overload the breaker exists
// to stop).
func Retryable(err error) bool {
	if err == nil {
		return false
	}
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return false
	}
	if errors.Is(err, ErrBreakerOpen) || errors.Is(err, ErrOverloaded) {
		return false
	}
	return true
}
