package coordinator

import (
	"sort"
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
// coordinator. A producer's Tags go on all of its outputs, so a plan's
// companion values (the Agentic Employer's JOB_ID) arrive here too; mayBePlan
// drops them in the watch loop. Every plan executes on a worker of the
// store's pool (streams.Store.Go), each with a fresh budget, up to
// DefaultMaxConcurrentPlans at once, so
// plans within one session — and services across sessions — run concurrently
// rather than queueing behind one another.
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
			if mayBePlan(msg.Payload) {
				s.spawn(msg.Payload, msg.Ask)
			}
		}
	}()
	return s
}

// mayBePlan reports whether a plan-tagged payload can be a plan: the typed
// value a live producer publishes, or the generic map a recovered or external
// payload is. Anything else planner.FromJSON would only marshal, fail to
// unmarshal and drop, on a pooled worker and a semaphore slot of its own.
func mayBePlan(payload any) bool {
	switch payload.(type) {
	case *planner.Plan, planner.Plan, map[string]any:
		return true
	}
	return false
}

// spawn executes one plan payload, for the ask its message named, on a worker
// of the store's pool, blocking the calling watch loop while
// DefaultMaxConcurrentPlans executions are already in flight (backpressure;
// the subscription queues further messages).
func (s *Service) spawn(payload any, ask uint64) {
	s.sem <- struct{}{}
	s.wg.Add(1)
	s.c.store.Go(func() {
		defer func() {
			<-s.sem
			s.wg.Done()
		}()
		s.execute(payload, ask)
	})
}

func (s *Service) execute(payload any, ask uint64) {
	p, err := planner.FromJSON(payload)
	if err != nil {
		return
	}
	_, _ = s.c.execute(s.session, ask, p, budget.New(s.limits), s.finish)
}

// finish keeps a plan's result, shows its final outputs and announces it,
// all before the plan's span ends: an ask that waits for its spans to end
// finds its result in Results.
func (s *Service) finish(res *Result, err error) {
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
		for _, param := range s.c.finalOrder(res) {
			_, _ = s.c.store.Publish(streams.Message{
				Stream: agent.DisplayStream(s.session), Session: s.session,
				Kind: streams.Data, Sender: "coordinator", Param: param,
				Tags: []string{"result"}, Payload: res.Final[param], Ask: res.Ask,
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

// finalOrder lists res.Final's parameters in the order the agent that produced
// them declares its outputs, so that what reaches the display — and which
// output an ask takes as its answer — is the same from run to run; sorted,
// when the registry does not know the agent or one of the outputs.
func (c *Coordinator) finalOrder(res *Result) []string {
	names := make([]string, 0, len(res.Final))
	if len(res.Final) > 1 {
		var producer string
		for _, sr := range res.Steps {
			if sr.Err == "" {
				producer = sr.Agent
			}
		}
		if spec, err := c.reg.Get(producer); err == nil {
			for _, p := range spec.Outputs {
				if _, ok := res.Final[p.Name]; ok {
					names = append(names, p.Name)
				}
			}
		}
	}
	if len(names) < len(res.Final) {
		names = names[:0]
		for n := range res.Final {
			names = append(names, n)
		}
		sort.Strings(names)
	}
	return names
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
