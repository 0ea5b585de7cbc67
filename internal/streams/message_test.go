package streams

import (
	"testing"
	"unsafe"
)

// TestWireSizes pins the two wire types' sizes on a 64-bit build: every
// stored message and every directive is one of these, so a field added to
// either is a cost a change has to state, here.
func TestWireSizes(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("sizes pinned for 64-bit builds")
	}
	if got := unsafe.Sizeof(Message{}); got != 128 {
		t.Errorf("Message is %d B, want 128", got)
	}
	if got := unsafe.Sizeof(Directive{}); got != 120 {
		t.Errorf("Directive is %d B, want 120", got)
	}
}
