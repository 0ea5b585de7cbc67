package streams

// drain consumes a subscription until its channel closes, so that nothing
// piles up behind it.
func drain(sub *Subscription) {
	go func() {
		for range sub.C() {
		}
	}()
}
