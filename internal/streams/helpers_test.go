package streams

import "os"

// openAppend opens path for appending; test helper for crash simulation.
func openAppend(path string) (*os.File, error) {
	return os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
}

// drain consumes a subscription until its channel closes, so that nothing
// piles up behind it.
func drain(sub *Subscription) {
	go func() {
		for range sub.C() {
		}
	}()
}
