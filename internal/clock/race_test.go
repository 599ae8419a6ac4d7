package clock

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"armnet/internal/leakcheck"
)

// TestWallCancelFireRace pins, under the race detector, that canceling
// a Wall timer while it is firing concurrently is safe, and that every
// timer resolves exactly one way: it fires once, or the cancel wins and
// it never fires. Zero delay makes the timer due at once, so Cancel
// races the dispatcher's pop as hard as the scheduler allows.
func TestWallCancelFireRace(t *testing.T) {
	w := NewWall()
	const n = 200
	var fired, stopped atomic.Int64
	done := make(chan struct{}, 2*n)
	for i := 0; i < n; i++ {
		tm := w.After(0, func() {
			fired.Add(1)
			done <- struct{}{}
		})
		go func() {
			// Probe the handle directly: stop reports whether the cancel
			// removed the pending entry, which decides who signals done.
			if tm.(wallTimer).stop() {
				stopped.Add(1)
				done <- struct{}{}
			}
			tm.Cancel() // the public path stays idempotent after a won stop
			tm.Cancel()
		}()
	}
	for i := 0; i < n; i++ {
		<-done
	}
	// A timer that resolved both ways would signal twice: give a late
	// second firing the time to show before counting.
	w.Stop()
	if got := fired.Load() + stopped.Load(); got != n {
		t.Fatalf("fired %d + stopped %d = %d, want %d", fired.Load(), stopped.Load(), got, n)
	}
}

// TestWallEveryCancelRace pins that canceling a ticker concurrently
// from two goroutines, while ticks may be in flight, is race-free, and
// that the dispatcher exits once every ticker is canceled.
func TestWallEveryCancelRace(t *testing.T) {
	base := leakcheck.Take()
	w := NewWall()
	const n = 50
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		var ticks atomic.Int64
		tk := w.Every(0.0005, func() { ticks.Add(1) })
		wg.Add(2)
		go func() { defer wg.Done(); tk.Cancel() }()
		go func() { defer wg.Done(); tk.Cancel() }()
	}
	wg.Wait()
	if err := base.Settled(5 * time.Second); err != nil {
		t.Fatal(err)
	}
}

// TestWallScheduleFromCallback pins that scheduling new timers from
// inside a firing callback — the protocols' retransmission pattern —
// is race-free and does not deadlock on the clock's mutex, including
// under concurrent load from other timers on the same clock.
func TestWallScheduleFromCallback(t *testing.T) {
	w := NewWall()
	var hops atomic.Int64
	done := make(chan struct{})
	var chain func()
	chain = func() {
		if hops.Add(1) == 5 {
			close(done)
			return
		}
		w.PostAfter(0.0005, chain)
	}
	w.PostAfter(0.0005, chain)
	var wg sync.WaitGroup
	for i := 0; i < 20; i++ {
		wg.Add(1)
		w.After(0.001, func() { wg.Done() })
	}
	<-done
	wg.Wait()
	if h := hops.Load(); h != 5 {
		t.Fatalf("chain ran %d hops, want 5", h)
	}
}
