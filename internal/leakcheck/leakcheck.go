// Package leakcheck lets a test prove that the goroutines it caused to
// start have exited: it takes the goroutine count before the code under
// test runs and waits, within a deadline, for the count to come back.
package leakcheck

import (
	"fmt"
	"runtime"
	"time"
)

// Baseline is the goroutine count a later Settled compares against.
type Baseline int

// Take reads the current goroutine count.
func Take() Baseline { return Baseline(runtime.NumGoroutine()) }

// Settled waits up to within for the goroutine count to fall back to b
// and returns nil once it has. Goroutines wind down asynchronously (a
// dispatcher returns after its last callback, a server after its last
// read), hence the wait. If the count is still higher at the deadline,
// the error carries every goroutine's stack, so the leaked one is named.
func (b Baseline) Settled(within time.Duration) error {
	const poll = 5 * time.Millisecond
	n := runtime.NumGoroutine()
	for waited := time.Duration(0); n > int(b) && waited < within; waited += poll {
		time.Sleep(poll)
		n = runtime.NumGoroutine()
	}
	if n <= int(b) {
		return nil
	}
	buf := make([]byte, 1<<20)
	buf = buf[:runtime.Stack(buf, true)]
	return fmt.Errorf("%d goroutines still running, baseline %d:\n%s", n, b, buf)
}
