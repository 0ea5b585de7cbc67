package streams

import (
	"bytes"
	"runtime"
	"sync"
	"testing"
	"time"
)

// Go never blocks and never waits for a free worker: a chain of 256 tasks,
// each handing off the next and waiting for its result, completes. A pool
// that bounded its busy workers would deadlock on it, as it would on a plan
// that waits for its own agents' invocations.
func TestGoNeverBlocks(t *testing.T) {
	s := NewStore()
	defer s.Close()
	const depth = 256
	var chain func(n int) int
	chain = func(n int) int {
		if n == 0 {
			return 0
		}
		next := make(chan int, 1)
		s.Go(func() { next <- chain(n - 1) })
		return <-next + 1
	}
	got := make(chan int, 1)
	s.Go(func() { got <- chain(depth) })
	select {
	case n := <-got:
		if n != depth {
			t.Fatalf("the chain returned %d, want %d", n, depth)
		}
	case <-time.After(5 * time.Second):
		t.Fatalf("a chain of %d nested hand-offs did not complete in 5 s", depth)
	}
}

// goroutineID is the calling goroutine's id, from the header of its stack
// trace: "goroutine 123 [running]:".
func goroutineID() string {
	var buf [64]byte
	header := bytes.TrimPrefix(buf[:runtime.Stack(buf[:], false)], []byte("goroutine "))
	return string(header[:bytes.IndexByte(header, ' ')])
}

// A worker runs task after task: 1 000 hand-offs, each awaited before the
// next, run on at most two goroutines, not on one each. With one P the
// worker has parked before the awaiting goroutine runs again, so an OS
// thread descheduled between a task's end and its worker's park cannot make
// the next Go start a third.
func TestGoReusesWorkers(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	s := NewStore()
	defer s.Close()
	ran := make(chan string)
	on := map[string]bool{}
	for i := 0; i < 1000; i++ {
		s.Go(func() { ran <- goroutineID() })
		on[<-ran] = true
	}
	if len(on) > 2 {
		t.Fatalf("1000 awaited hand-offs ran on %d goroutines, want at most 2", len(on))
	}
}

// occupy hands n tasks to the pool at once and returns when all have run:
// n workers, parked or about to park.
func occupy(s *Store, n int) {
	gate := make(chan struct{})
	var ran sync.WaitGroup
	ran.Add(n)
	for i := 0; i < n; i++ {
		s.Go(func() {
			<-gate
			ran.Done()
		})
	}
	close(gate)
	ran.Wait()
}

// Parked workers give their goroutines back: after idleExit while the store
// is open, at once when it closes. A Go after Close still runs its task, on a
// worker that does not stay.
func TestPoolIdleAndClose(t *testing.T) {
	base := runtime.NumGoroutine()
	s := NewStore()
	occupy(s, 8)
	settle(t, base) // the idle exit, the store open

	occupy(s, 8)
	closed := time.Now()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	settle(t, base)
	if took := time.Since(closed); took >= idleExit/2 {
		t.Fatalf("parked workers took %v to exit after Close, want at once (they idle out after %v)", took, idleExit)
	}

	ran := make(chan struct{})
	s.Go(func() { close(ran) })
	select {
	case <-ran:
	case <-time.After(5 * time.Second):
		t.Fatal("a Go after Close did not run its task")
	}
	settle(t, base)
}
