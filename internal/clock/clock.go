// Package clock abstracts the time source the control-plane protocols
// run on — the TimeProvider seam that lets the signaling plane and the
// maxmin rate protocol share one timer code path between the
// discrete-event simulator and live wall-clock deployment.
//
// Two implementations ship:
//
//   - Sim wraps a *des.Simulator one-to-one. Every call delegates
//     directly, so a protocol built on Sim(s) schedules exactly the
//     events it scheduled when it held the simulator — the event order,
//     and with it every pinned golden trace, is byte-identical.
//   - Wall runs on real time. Callbacks fire from time.AfterFunc
//     goroutines but are serialized through one mutex, preserving the
//     single-threaded execution model the protocol state machines
//     assume; external drivers (socket read loops, scenario scripts)
//     join the same critical section via Run.
//
// Times are float64 seconds, matching the simulator's clock; Wall's
// epoch is its construction time.
package clock

import (
	"sync"
	"time"

	"armnet/internal/des"
)

// Timer is a cancelable scheduled callback. Both *des.Event and
// *des.Ticker satisfy it, as do Wall's timers.
type Timer interface {
	// Cancel prevents a pending firing. Safe to call more than once;
	// canceling an already-fired one-shot is a no-op.
	Cancel()
}

// Clock is the scheduling surface the protocols consume. It mirrors the
// subset of *des.Simulator they were written against.
type Clock interface {
	// Now returns the current time in seconds.
	Now() float64
	// After schedules fn to run d seconds from now and returns a cancel
	// handle.
	After(d float64, fn func()) Timer
	// PostAfter schedules fn to run d seconds from now with no handle —
	// the hot path for callbacks that are never canceled.
	PostAfter(d float64, fn func())
	// Every invokes fn every period seconds until the returned timer is
	// canceled. It panics if period is not positive.
	Every(period float64, fn func()) Timer
}

// simClock adapts a *des.Simulator to Clock by pure delegation.
type simClock struct{ s *des.Simulator }

// Sim returns a Clock backed by the simulator. The adapter adds no
// scheduling of its own, so protocols driven through it behave
// identically to protocols holding the simulator directly.
func Sim(s *des.Simulator) Clock { return simClock{s} }

func (c simClock) Now() float64                          { return c.s.Now() }
func (c simClock) After(d float64, fn func()) Timer      { return c.s.After(d, fn) }
func (c simClock) PostAfter(d float64, fn func())        { c.s.PostAfter(d, fn) }
func (c simClock) Every(period float64, fn func()) Timer { return c.s.Every(period, fn) }

// Wall is the live-mode clock: real time, callbacks serialized through
// one mutex. Its Now starts at zero when the Wall is built, so wall
// traces use the same "seconds since scenario start" coordinate the
// simulator uses.
//
// Wall also satisfies eventbus.Clock, so live nodes stamp their event
// buses from the same source their timers run on.
type Wall struct {
	mu    sync.Mutex
	start time.Time
}

// NewWall returns a wall clock whose epoch is now.
func NewWall() *Wall { return &Wall{start: time.Now()} }

// Now returns seconds elapsed since construction.
func (w *Wall) Now() float64 { return time.Since(w.start).Seconds() }

// Run executes fn inside the clock's critical section. Everything that
// touches protocol state in live mode — timer callbacks, socket read
// handlers, scenario steps — must run through here, which restores the
// single-threaded model the simulator provided for free.
func (w *Wall) Run(fn func()) {
	w.mu.Lock()
	defer w.mu.Unlock()
	fn()
}

// dur converts seconds to a non-negative duration. Negative delays are
// clamped to zero: a live-mode backoff computed against an already-past
// deadline should fire immediately, not panic like the simulator (where
// scheduling in the past always means a model bug).
func dur(d float64) time.Duration {
	if d < 0 {
		d = 0
	}
	return time.Duration(d * float64(time.Second))
}

type wallTimer struct{ t *time.Timer }

func (t wallTimer) Cancel() { t.t.Stop() }

// After schedules fn under the clock's lock d seconds from now.
func (w *Wall) After(d float64, fn func()) Timer {
	return wallTimer{time.AfterFunc(dur(d), func() { w.Run(fn) })}
}

// PostAfter is After without the handle.
func (w *Wall) PostAfter(d float64, fn func()) {
	time.AfterFunc(dur(d), func() { w.Run(fn) })
}

type wallTicker struct {
	tk   *time.Ticker
	stop chan struct{}
	once sync.Once
}

func (t *wallTicker) Cancel() {
	t.once.Do(func() {
		t.tk.Stop()
		close(t.stop)
	})
}

// Every runs fn under the clock's lock once per period until canceled.
func (w *Wall) Every(period float64, fn func()) Timer {
	if period <= 0 {
		panic("clock: non-positive ticker period")
	}
	t := &wallTicker{tk: time.NewTicker(dur(period)), stop: make(chan struct{})}
	go func() {
		for {
			select {
			case <-t.tk.C:
				select {
				case <-t.stop:
					return
				default:
				}
				w.Run(fn)
			case <-t.stop:
				return
			}
		}
	}()
	return t
}
