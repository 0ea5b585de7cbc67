package coordinator

import (
	"errors"
	"maps"
	"slices"
	"sort"
	"sync"

	"blueprint/internal/agent"
	"blueprint/internal/budget"
	"blueprint/internal/planner"
	"blueprint/internal/streams"
)

// DefaultMaxConcurrentPlans bounds how many plans one joined session has
// executing at once; the session's further plans wait for a slot on workers
// of the store's pool, so a session flooding itself with plans holds up no
// other session's.
const DefaultMaxConcurrentPlans = 8

// resultsKept is how many completed plan results a session's Seat holds. A
// session runs plans for as long as it lives; its readers want the latest
// ones.
const resultsKept = 64

// PlanTag marks data messages carrying a plan payload.
const PlanTag = "plan"

// Service is the coordinator deployed once per process: it listens for data
// messages tagged PlanTag in every session that has joined it (the task
// planner agent publishes its PLAN output so, as does any agent that plans)
// and executes each plan — the "TC listening to any stream with a plan
// unrolls the plan" behaviour of Fig. 9: the way an ask's plan reaches the
// coordinator. It is not the only way in: the root package's
// Session.ExecuteUtterance calls Coordinator.ExecuteAsk directly, and the
// benchmark's coordinator probe calls ExecutePlan. Sessions join and leave
// it as they join and leave an agent deployment (agent.Instance): one
// scoped subscription and one watch
// goroutine serve them all, and a session holds only its Seat. A producer's
// Tags go on all of its outputs, so any value published beside a plan
// arrives here too; the watch loop drops what mayBePlan refuses.
// The loop never waits: every plan goes at once to a worker of the store's
// pool (streams.Store.Go), which takes one of its session's
// DefaultMaxConcurrentPlans slots and executes the plan with a fresh budget.
type Service struct {
	c      *Coordinator
	limits budget.Limits
	sub    *streams.Subscription
	loop   sync.WaitGroup

	mu    sync.Mutex
	seats map[string]*Seat // the joined sessions
}

// Seat is what one joined session holds of the Service: its bound on plans
// executing, the plans it has running and its latest results, which stay
// readable after the session has left.
type Seat struct {
	slots chan struct{} // one per executing plan, DefaultMaxConcurrentPlans
	left  chan struct{} // closed by Leave: no further plan starts
	wg    sync.WaitGroup

	mu      sync.Mutex
	results []*Result // the last resultsKept, oldest first
}

// Serve deploys the coordinator service: one subscription, to plan-tagged
// data of the sessions that Join it, and one goroutine reading it. Each plan
// is executed with a fresh budget under the given limits.
func (c *Coordinator) Serve(limits budget.Limits) *Service {
	s := &Service{c: c, limits: limits, seats: map[string]*Seat{}}
	s.sub = c.store.SubscribeScoped(planFilter)
	s.loop.Add(1)
	go func() {
		defer s.loop.Done()
		for msg := range s.sub.C() {
			if ReadsPlan(&msg) {
				s.spawn(msg.Session, msg.Payload, msg.Ask)
			}
		}
	}()
	return s
}

// Join puts a session, sub-scopes included, in the service's care and
// returns its seat: a plan published in a sub-scope runs on the seat of the
// innermost joined scope and shows there. A session joins once.
func (s *Service) Join(session string) *Seat {
	st := &Seat{slots: make(chan struct{}, DefaultMaxConcurrentPlans), left: make(chan struct{})}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.seats[session] = st
	s.sub.Join(session)
	return st
}

// Seat returns the seat of a joined session.
func (s *Service) Seat(session string) (*Seat, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	st, ok := s.seats[session]
	return st, ok
}

// Leave takes a session out of the service, as agent.Instance.Leave does:
// nothing more is routed from it, its plans still waiting for a slot are
// dropped, and its running plans are waited for (those of other sessions are
// not). Leaving a session not joined is a no-op.
func (s *Service) Leave(session string) {
	s.mu.Lock()
	st, ok := s.seats[session]
	if ok {
		delete(s.seats, session)
		s.sub.Leave(session)
		close(st.left)
	}
	s.mu.Unlock()
	if ok {
		st.wg.Wait()
	}
}

// Stop leaves every session still joined, then cancels the subscription and
// waits for the watch goroutine. Safe to call more than once.
func (s *Service) Stop() {
	s.mu.Lock()
	sessions := slices.Collect(maps.Keys(s.seats))
	s.mu.Unlock()
	for _, session := range sessions {
		s.Leave(session)
	}
	s.sub.Cancel()
	s.loop.Wait()
}

// planFilter is what the service receives: data tagged PlanTag.
var planFilter = streams.Filter{Kinds: []streams.Kind{streams.Data}, IncludeTags: []string{PlanTag}}

// ReadsPlan reports whether the service executes msg as a plan: plan-tagged
// data whose payload mayBePlan.
func ReadsPlan(msg *streams.Message) bool {
	return planFilter.Matches(msg) && mayBePlan(msg.Payload)
}

// mayBePlan reports whether a plan-tagged payload is a plan: the *planner.Plan
// a producer publishes, live or recovered from a log. Anything else would
// take a pooled worker and a slot of its own only to be dropped.
func mayBePlan(payload any) bool {
	p, ok := payload.(*planner.Plan)
	return ok && p != nil
}

// spawn hands the plan payload of a message in scope, for ask, to a worker of
// the store's pool without waiting, for the seat of the innermost joined
// scope. The worker waits for one of the seat's slots and executes the plan
// in that joined scope, unless the session has left by then.
func (s *Service) spawn(scope string, payload any, ask uint64) {
	s.mu.Lock()
	session, ok := streams.InnermostScope(s.seats, scope)
	st := s.seats[session]
	if ok {
		st.wg.Add(1) // under s.mu, so never after Leave's Wait has begun
	}
	s.mu.Unlock()
	if !ok {
		return // the session left after the message was routed
	}
	s.c.store.Go(func() {
		defer st.wg.Done()
		st.slots <- struct{}{} // at the bound: until one of the session's running plans ends
		defer func() { <-st.slots }()
		select {
		case <-st.left: // the session left while this plan waited for its slot
			return
		default:
		}
		// The payload stays in the stream's history, where it is read while
		// it runs: a published plan is immutable, and nothing on the run
		// path writes one (a replan builds a new plan).
		_, _ = s.c.execute(session, ask, payload.(*planner.Plan), budget.New(s.limits), func(res *Result, err error) {
			s.finish(session, st, res, err)
		})
	})
}

// finish keeps a plan's result on its seat and shows how the plan ended on
// the session's display stream, both before the plan's span ends: an ask
// that waits for its spans to end finds its result in Results. A completed
// plan shows its final outputs; a plan given up on — a step failed with no
// substitute, or a budget abort — shows one AGENT_ERROR naming the failed
// step's agent, or "coordinator" for an abort: the failure record that ends
// the ask's wait. Publish creates the display stream, under the session, on
// a store where no session made it.
func (s *Service) finish(session string, st *Seat, res *Result, err error) {
	st.mu.Lock()
	if len(st.results) == resultsKept {
		st.results = append(st.results[:0], st.results[1:]...)
	}
	st.results = append(st.results, res)
	st.mu.Unlock()
	if err != nil {
		failed := failedAgent("coordinator")
		errors.As(err, &failed)
		_, _ = s.c.store.Publish(streams.Message{
			Stream: agent.DisplayStream(session), Session: session,
			Kind: streams.Control, Sender: "coordinator", Ask: res.Ask,
			Directive: &streams.Directive{Op: agent.OpAgentError, Agent: string(failed), Error: err.Error()},
		})
		return
	}
	for _, param := range s.c.finalOrder(res) {
		_, _ = s.c.store.Publish(streams.Message{
			Stream: agent.DisplayStream(session), Session: session,
			Kind: streams.Data, Sender: "coordinator", Param: param,
			Tags: []string{"result"}, Payload: res.Final[param], Ask: res.Ask,
		})
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

// Results returns the session's most recently completed plans, oldest
// first: at most resultsKept (64) of them, however many it has run.
func (st *Seat) Results() []*Result {
	st.mu.Lock()
	defer st.mu.Unlock()
	return append([]*Result(nil), st.results...)
}
