package streams

import "time"

// idleExit is how long a parked worker waits for its next task before it
// exits. It bounds what an idle store holds, not how many workers a busy one
// runs: short, so that a store whose traffic stops gives its goroutines back
// quickly, and long beside the gaps between hand-offs under load.
const idleExit = 100 * time.Millisecond

// pool is the store's set of long-lived workers (Store.Go). A worker runs a
// task, parks, and runs the next task it is handed on the stack the earlier
// ones grew, so a hand-off into the agent, registry and relational frames
// does not grow a fresh 2 KB stack again each time.
type pool struct {
	tasks chan func()   // unbuffered: a send succeeds only into a parked worker
	quit  chan struct{} // closed by Store.Close: parked workers exit
}

// Go runs f on a worker of the store's pool: a parked one, or a new one when
// none is parked. It never blocks and never waits for a busy worker, so a task
// may hand off tasks of its own and wait for them. It bounds nothing:
// admission, and the per-agent and per-plan bounds, belong to the callers.
// After Close f still runs, on a worker that exits once f returns.
func (s *Store) Go(f func()) {
	select {
	case s.pool.tasks <- f:
	default:
		go s.pool.work(f)
	}
}

// work runs f, then every task the worker is handed while parked, until it
// has been parked for idleExit or the store is closed.
func (p *pool) work(f func()) {
	idle := time.NewTimer(idleExit)
	defer idle.Stop()
	for {
		f()
		idle.Reset(idleExit)
		select {
		case f = <-p.tasks:
		case <-idle.C:
			return
		case <-p.quit:
			return
		}
	}
}
