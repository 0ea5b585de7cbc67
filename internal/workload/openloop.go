package workload

import (
	"context"
	"math/rand"
	"sync"
	"time"
)

// Open-loop workload driver (§II "millions of users"): arrivals are
// scheduled by a seeded stochastic process, independent of completions — a
// slow system does not slow the offered load down, which is exactly the
// regime overload control exists for. Closed-loop drivers (issue N asks,
// wait, repeat) self-throttle under brownout and hide the queueing collapse
// this driver is built to expose.

// Arrival is one scheduled open-loop request.
type Arrival struct {
	// At is the arrival's offset from the start of the run.
	At time.Duration
	// Tenant is the issuing tenant (the governor's fair-share unit).
	Tenant string
	// Query is the utterance to ask.
	Query Query
}

// BurstConfig modulates a Poisson process into on/off bursts: during a
// burst of length On the instantaneous rate is Factor x the base rate, then
// the process idles at the base rate for Off. Zero value = unmodulated.
type BurstConfig struct {
	// Factor multiplies the base rate during bursts (> 1).
	Factor float64
	// On is the burst duration; Off the inter-burst gap at base rate.
	On, Off time.Duration
}

// OpenLoopConfig shapes a generated arrival schedule.
type OpenLoopConfig struct {
	// Rate is the mean offered load in asks/second (Poisson: exponential
	// inter-arrival times with mean 1/Rate).
	Rate float64
	// Duration bounds the schedule.
	Duration time.Duration
	// Tenants are drawn uniformly per arrival (default: one tenant "t0").
	Tenants []string
	// Burst, when Factor > 1, modulates the process into on/off bursts.
	Burst BurstConfig
}

// OpenLoop generates a deterministic open-loop arrival schedule: Poisson
// arrivals at cfg.Rate (optionally burst-modulated), each assigned a tenant
// and an utterance from the standard mixed query workload.
func OpenLoop(seed int64, cfg OpenLoopConfig) []Arrival {
	if cfg.Rate <= 0 || cfg.Duration <= 0 {
		return nil
	}
	tenants := cfg.Tenants
	if len(tenants) == 0 {
		tenants = []string{"t0"}
	}
	rng := rand.New(rand.NewSource(seed))
	// Pre-draw a generous utterance pool; arrivals cycle through it.
	pool := Queries(seed, 64)

	// rateAt is the instantaneous rate at offset t under burst modulation.
	period := cfg.Burst.On + cfg.Burst.Off
	rateAt := func(t time.Duration) float64 {
		if cfg.Burst.Factor <= 1 || period <= 0 {
			return cfg.Rate
		}
		if t%period < cfg.Burst.On {
			return cfg.Rate * cfg.Burst.Factor
		}
		return cfg.Rate
	}

	var out []Arrival
	at := time.Duration(0)
	for i := 0; ; i++ {
		// Exponential inter-arrival at the instantaneous rate. Drawing at
		// the rate in effect at the previous arrival is a standard
		// piecewise approximation — exact thinning is overkill for a
		// driver whose point is sustained pressure, not process purity.
		gap := time.Duration(rng.ExpFloat64() / rateAt(at) * float64(time.Second))
		if gap <= 0 {
			gap = time.Nanosecond
		}
		at += gap
		if at >= cfg.Duration {
			return out
		}
		out = append(out, Arrival{
			At:     at,
			Tenant: tenants[rng.Intn(len(tenants))],
			Query:  pool[i%len(pool)],
		})
	}
}

// Replay fires fn for each arrival at its scheduled offset, open-loop: each
// invocation runs in its own goroutine and the schedule never waits for
// completions. Replay returns once every fired invocation has returned (or
// immediately after ctx cancels the remaining schedule; in-flight fns are
// still awaited). fn observes the arrival it serves.
func Replay(ctx context.Context, arrivals []Arrival, fn func(Arrival)) {
	start := time.Now()
	var wg sync.WaitGroup
	for _, a := range arrivals {
		wait := a.At - time.Since(start)
		if wait > 0 {
			select {
			case <-time.After(wait):
			case <-ctx.Done():
				wg.Wait()
				return
			}
		} else if ctx.Err() != nil {
			wg.Wait()
			return
		}
		wg.Add(1)
		go func(a Arrival) {
			defer wg.Done()
			fn(a)
		}(a)
	}
	wg.Wait()
}
