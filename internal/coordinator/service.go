package coordinator

import (
	"sync"

	"blueprint/internal/agent"
	"blueprint/internal/budget"
	"blueprint/internal/planner"
	"blueprint/internal/streams"
)

// DefaultMaxConcurrentPlans bounds how many watched plans one Service
// executes concurrently; further plans queue behind the semaphore (the
// subscription buffers them), providing backpressure against a component
// flooding the session with plans.
const DefaultMaxConcurrentPlans = 8

// resultsKept is how many completed plan results a Service holds, in its
// result channel's buffer and in Results alike. A session runs plans for as
// long as it lives; its readers want the latest ones.
const resultsKept = 64

// PlanTag marks data messages carrying a plan payload.
const PlanTag = "plan"

// Service runs the coordinator as a long-lived session participant: it
// listens to the session's streams for data messages tagged PlanTag (the task
// planner agent publishes its PLAN output so, as does any agent that plans)
// and executes each plan — the "TC listening to any stream with a plan
// unrolls the plan" behaviour of Fig. 9, and the one way a plan reaches the
// coordinator. Every plan executes on its own goroutine (each with a fresh
// budget), up to DefaultMaxConcurrentPlans at once, so plans within one
// session — and services across sessions — run concurrently rather than
// queueing behind one another.
type Service struct {
	c         *Coordinator
	session   string
	limits    budget.Limits
	sub       *streams.Subscription
	wg        sync.WaitGroup
	resultCh  chan *Result
	sem       chan struct{}
	closeOnce sync.Once

	mu      sync.Mutex
	results []*Result // the last resultsKept, oldest first
}

// Serve starts the coordinator service on a session: one subscription, to
// plan-tagged data, and one goroutine reading it. Each incoming plan is
// executed with a fresh budget under the given limits.
func (c *Coordinator) Serve(session string, limits budget.Limits) *Service {
	s := &Service{
		c: c, session: session, limits: limits,
		resultCh: make(chan *Result, resultsKept),
		sem:      make(chan struct{}, DefaultMaxConcurrentPlans),
	}
	s.sub = c.store.Subscribe(streams.Filter{
		Session:     session,
		Kinds:       []streams.Kind{streams.Data},
		IncludeTags: []string{PlanTag},
	}, false)
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		for msg := range s.sub.C() {
			s.spawn(msg.Payload)
		}
	}()
	return s
}

// spawn executes one plan payload on its own goroutine, blocking the
// calling watch loop while DefaultMaxConcurrentPlans executions are already
// in flight (backpressure; the subscription queues further messages).
func (s *Service) spawn(payload any) {
	s.sem <- struct{}{}
	s.wg.Add(1)
	go func() {
		defer func() {
			<-s.sem
			s.wg.Done()
		}()
		s.execute(payload)
	}()
}

func (s *Service) execute(payload any) {
	p, err := planner.FromJSON(payload)
	if err != nil {
		return
	}
	b := budget.New(s.limits)
	res, err := s.c.ExecutePlan(s.session, p, b)
	if res != nil {
		s.mu.Lock()
		if len(s.results) == resultsKept {
			s.results = append(s.results[:0], s.results[1:]...)
		}
		s.results = append(s.results, res)
		s.mu.Unlock()
	}
	if err == nil && res != nil {
		// Surface the final outputs on the display stream for the user.
		for param, v := range res.Final {
			_, _ = s.c.store.Publish(streams.Message{
				Stream: agent.DisplayStream(s.session), Session: s.session,
				Kind: streams.Data, Sender: "coordinator", Param: param,
				Tags: []string{"result"}, Payload: v,
			})
		}
	}
	if res != nil {
		// Announce completion on the event-driven result channel. The
		// channel is buffered and never blocks execution: with no consumer,
		// results beyond the buffer are dropped from the channel.
		select {
		case s.resultCh <- res:
		default:
		}
	}
}

// ResultC delivers each completed plan result as it finishes — the
// event-driven alternative to polling Results — and is closed by Stop once
// every in-flight execution has drained, so ranging over it terminates.
// Consumers that fall more than the channel buffer behind miss older
// results.
func (s *Service) ResultC() <-chan *Result { return s.resultCh }

// Results returns the most recently completed plans, oldest first: at most
// resultsKept (64) of them, however many the session has run.
func (s *Service) Results() []*Result {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]*Result(nil), s.results...)
}

// Stop cancels the subscription, waits for in-flight executions, and closes
// the result channel. Safe to call more than once.
func (s *Service) Stop() {
	s.sub.Cancel()
	s.wg.Wait()
	s.closeOnce.Do(func() { close(s.resultCh) })
}
