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
//   - Wall runs on real time. Its timers wait in one heap and fire from
//     one dispatcher goroutine, each callback inside one mutex,
//     preserving the single-threaded execution model the protocol state
//     machines assume; external drivers (socket read loops, scenario
//     scripts) join the same critical section via Run.
//
// Times are float64 seconds, matching the simulator's clock; Wall's
// epoch is its construction time.
package clock

import (
	"math"
	"sync"
	"sync/atomic"
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
// Timers wait in one min-heap of (deadline, seq) entries, deadlines in
// the clock's own seconds. One dispatcher goroutine fires them: it
// starts with the first timer, sleeps on one reused time.Timer until the
// earliest deadline, runs each due callback in its own critical section
// (so Run callers interleave between callbacks) and exits when the heap
// is empty. Equal deadlines fire in schedule order, as on the simulator.
// A Wall that never schedules a timer — a node's, which only stamps its
// trace — starts no goroutine.
//
// Wall also satisfies eventbus.Clock, so live nodes stamp their event
// buses from the same source their timers run on.
type Wall struct {
	mu    sync.Mutex // the critical section: callbacks and Run
	start time.Time

	// tmu guards the timer state below. It is never held while a
	// callback runs, so callbacks schedule and cancel freely.
	tmu   sync.Mutex
	heap  []wallEntry
	seq   uint64
	timer *time.Timer   // the dispatcher's sleep, built at its first start
	wake  chan struct{} // an earlier deadline, a canceled head, or Stop
	// firing is the id of the ticker whose callback is running (0 when
	// none); a Cancel of it clears rearm.
	firing  uint64
	rearm   bool
	running bool // a dispatcher goroutine is live
	stopped atomic.Bool
	exited  sync.WaitGroup // the live dispatcher, for Stop to wait on
	// dispatchFn is the dispatcher as a func value built once, so that
	// starting it allocates no closure.
	dispatchFn func()
}

// wallEntry is one pending timer, held in the heap by value.
type wallEntry struct {
	at  float64 // deadline, in the clock's seconds
	seq uint64  // schedule order: the tiebreak among equal deadlines
	// id is the timer's identity, the seq it was first scheduled with;
	// a ticker keeps it across re-arms, which take fresh seqs.
	id     uint64
	period float64 // > 0 for a ticker
	fn     func()
}

func (a *wallEntry) before(b *wallEntry) bool {
	return a.at < b.at || a.at == b.at && a.seq < b.seq
}

// NewWall returns a wall clock whose epoch is now.
func NewWall() *Wall {
	w := &Wall{start: time.Now(), wake: make(chan struct{}, 1)}
	w.dispatchFn = w.dispatch
	return w
}

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

// wallTimer is the cancel handle of a Wall timer or ticker: its id.
type wallTimer struct {
	w  *Wall
	id uint64
}

// Cancel removes the timer if it is still pending; a ticker whose
// callback is running is not re-armed.
func (t wallTimer) Cancel() { t.stop() }

// stop is Cancel reporting whether it won: true if it removed a pending
// firing, false if the one-shot has fired or is firing (or was already
// canceled). Entries are values, so there is no index to hold: it scans
// the heap for the id.
func (t wallTimer) stop() bool {
	w := t.w
	w.tmu.Lock()
	defer w.tmu.Unlock()
	if t.id != 0 && t.id == w.firing {
		w.rearm = false
	}
	for i := range w.heap {
		if w.heap[i].id == t.id {
			w.remove(i)
			if i == 0 {
				w.signal()
			}
			return true
		}
	}
	return false
}

// After schedules fn under the clock's lock d seconds from now. A
// negative d fires at once: a live-mode backoff computed against an
// already-past deadline should fire immediately, not panic like the
// simulator (where scheduling in the past always means a model bug).
func (w *Wall) After(d float64, fn func()) Timer {
	return wallTimer{w, w.schedule(w.Now()+max(d, 0), 0, fn)}
}

// PostAfter is After without the handle.
func (w *Wall) PostAfter(d float64, fn func()) {
	w.schedule(w.Now()+max(d, 0), 0, fn)
}

// Every runs fn under the clock's lock once per period until canceled.
// A tick that comes due while an earlier one is late is dropped, as
// time.Ticker drops it: the ticker re-arms at the first multiple of the
// period still ahead of the clock.
func (w *Wall) Every(period float64, fn func()) Timer {
	if period <= 0 {
		panic("clock: non-positive ticker period")
	}
	return wallTimer{w, w.schedule(w.Now()+period, period, fn)}
}

// schedule pushes one timer due at the clock reading at and returns its
// id, starting the dispatcher if none is live. After Stop it schedules
// nothing and returns 0, which no timer has.
func (w *Wall) schedule(at, period float64, fn func()) uint64 {
	w.tmu.Lock()
	defer w.tmu.Unlock()
	if w.stopped.Load() {
		return 0
	}
	w.seq++
	w.push(wallEntry{at: at, seq: w.seq, id: w.seq, period: period, fn: fn})
	switch {
	case !w.running:
		w.running = true
		w.exited.Add(1)
		go w.dispatchFn()
	case w.heap[0].seq == w.seq:
		w.signal() // the new timer is the earliest: cut the sleep short
	}
	return w.seq
}

// signal wakes the dispatcher if it sleeps; a wake already pending
// covers this one.
func (w *Wall) signal() {
	select {
	case w.wake <- struct{}{}:
	default:
	}
}

// dispatch is the dispatcher goroutine: fire what is due, sleep until
// the next deadline, exit when the heap is empty or the clock stopped.
func (w *Wall) dispatch() {
	defer w.exited.Done()
	w.tmu.Lock()
	for {
		if len(w.heap) == 0 || w.stopped.Load() {
			w.running = false
			w.tmu.Unlock()
			return
		}
		now := w.Now()
		if next := w.heap[0].at; next > now {
			w.tmu.Unlock()
			w.sleep(time.Duration((next - now) * float64(time.Second)))
			w.tmu.Lock()
			continue
		}
		e := w.pop()
		if e.period > 0 {
			w.firing, w.rearm = e.id, true
		}
		w.tmu.Unlock()
		w.mu.Lock()
		if !w.stopped.Load() {
			e.fn()
		}
		w.mu.Unlock()
		w.tmu.Lock()
		if e.period > 0 {
			if w.rearm && !w.stopped.Load() {
				e.at = nextTick(e.at, e.period, w.Now())
				w.seq++
				e.seq = w.seq
				w.push(e)
			}
			w.firing = 0
		}
	}
}

// nextTick is the deadline a ticker that fired for deadline at re-arms
// with: one period on, or, if the clock has already passed that, the
// first multiple of the period after now — the missed ticks are dropped.
func nextTick(at, period, now float64) float64 {
	next := at + period
	if next <= now {
		missed := math.Floor((now - next) / period)
		next += float64(missed * period)
		for next <= now {
			next += period
		}
	}
	return next
}

// sleep waits d on the dispatcher's timer, or less if woken.
func (w *Wall) sleep(d time.Duration) {
	if w.timer == nil {
		w.timer = time.NewTimer(d)
	} else {
		w.timer.Reset(d)
	}
	select {
	case <-w.timer.C:
	case <-w.wake:
		if !w.timer.Stop() {
			select { // a tick that raced the wake
			case <-w.timer.C:
			default:
			}
		}
	}
}

// Stop cancels every pending timer and ticker, and no timer scheduled
// after it fires. Called outside the critical section, it returns once
// the dispatcher has exited. Called inside it — from a callback, or
// while another goroutine's callback or Run holds it — it cannot wait
// for that callback to end, so it returns at once: the dispatcher runs
// no further callback and exits when the section is released. Stop may
// be called any number of times.
func (w *Wall) Stop() {
	w.tmu.Lock()
	w.stopped.Store(true)
	clear(w.heap)
	w.heap = w.heap[:0]
	w.rearm = false
	w.signal()
	w.tmu.Unlock()
	if w.mu.TryLock() {
		w.mu.Unlock()
		w.exited.Wait()
	}
}

// push, pop and remove keep w.heap a binary min-heap in (at, seq)
// order; the caller holds tmu.
func (w *Wall) push(e wallEntry) {
	w.heap = append(w.heap, e)
	w.up(len(w.heap) - 1)
}

func (w *Wall) pop() wallEntry {
	e := w.heap[0]
	w.remove(0)
	return e
}

func (w *Wall) remove(i int) {
	h := w.heap
	last := len(h) - 1
	h[i] = h[last]
	h[last] = wallEntry{} // drop the callback for the GC
	w.heap = h[:last]
	if i < last {
		w.down(i)
		w.up(i)
	}
}

func (w *Wall) up(i int) {
	h := w.heap
	for i > 0 {
		p := (i - 1) / 2
		if !h[i].before(&h[p]) {
			return
		}
		h[i], h[p] = h[p], h[i]
		i = p
	}
}

func (w *Wall) down(i int) {
	h := w.heap
	for {
		c := 2*i + 1
		if c >= len(h) {
			return
		}
		if r := c + 1; r < len(h) && h[r].before(&h[c]) {
			c = r
		}
		if !h[c].before(&h[i]) {
			return
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
}
