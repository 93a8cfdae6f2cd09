package testutil

import (
	"runtime"
	"testing"
	"time"
)

// leakSettle bounds how long CheckGoroutines waits for goroutines that
// are already on their way out (connection readers noticing a close,
// timers firing) before it calls the surplus a leak.
const leakSettle = 5 * time.Second

// CheckGoroutines records the current goroutine count and registers a
// cleanup that fails t unless the count settles back to that baseline.
// Call it first in a test: cleanups run last-registered-first, so the
// check runs after every server, router and listener the test closes
// through t.Cleanup. The failure message carries every goroutine's stack.
// Tests that call it must not run in parallel with others.
func CheckGoroutines(t testing.TB) {
	t.Helper()
	base := runtime.NumGoroutine()
	t.Cleanup(func() {
		deadline := time.Now().Add(leakSettle)
		n := runtime.NumGoroutine()
		for n > base && time.Now().Before(deadline) {
			time.Sleep(10 * time.Millisecond)
			n = runtime.NumGoroutine()
		}
		if n > base {
			buf := make([]byte, 1<<20)
			buf = buf[:runtime.Stack(buf, true)]
			t.Errorf("goroutine leak: %d running, baseline %d\n%s", n, base, buf)
		}
	})
}
