// Package des implements a deterministic discrete-event simulation engine.
//
// The engine is the substrate on which every experiment in this repository
// runs: mobility models, traffic generators, handoff managers and the
// distributed rate-allocation protocol all schedule work as timestamped
// events on a single Simulator. Simulated time is a float64 number of
// seconds starting at zero. Events with equal timestamps fire in the order
// they were scheduled, which keeps runs reproducible across platforms.
package des

import (
	"errors"
	"fmt"
	"math"
)

// ErrStopped is returned by Run variants when the simulation was stopped
// explicitly via Stop rather than by exhausting the event queue or reaching
// the horizon.
var ErrStopped = errors.New("des: simulation stopped")

// Event is a unit of scheduled work. The callback runs at the event's
// timestamp with the simulator clock already advanced.
type Event struct {
	time   float64
	seq    uint64 // tiebreaker: schedule order
	fn     func()
	cancel bool
	// pooled events were scheduled through Post/PostAfter: no handle
	// escaped, so the record returns to the simulator's freelist after
	// it fires.
	pooled bool
}

// Time returns the simulated time at which the event fires.
func (e *Event) Time() float64 { return e.time }

// Canceled reports whether Cancel was called on the event.
func (e *Event) Canceled() bool { return e.cancel }

// Cancel prevents a pending event from firing. Canceling an event that has
// already fired or was already canceled is a no-op.
func (e *Event) Cancel() { e.cancel = true }

// eventQueue is a hand-rolled four-ary min-heap ordered by (time, seq).
// Four children per node halves the tree depth of the binary
// container/heap it replaced, which cuts the sift compares and pointer
// moves on the fire path — the single hottest loop in the repository —
// and dropping the heap.Interface indirection lets every operation
// inline. The (time, seq) order is total, so the pop sequence (and with
// it every trace byte) is identical to the binary heap's regardless of
// internal layout.
type eventQueue []*Event

// degree is the heap's fan-out. Four is the sweet spot for pointer
// heaps: depth log₄(n) with still-cheap child scans.
const degree = 4

func (q eventQueue) less(i, j int) bool {
	if q[i].time != q[j].time {
		return q[i].time < q[j].time
	}
	return q[i].seq < q[j].seq
}

func (q eventQueue) swap(i, j int) {
	q[i], q[j] = q[j], q[i]
}

func (q *eventQueue) push(e *Event) {
	*q = append(*q, e)
	q.up(len(*q) - 1)
}

func (q eventQueue) up(i int) {
	for i > 0 {
		parent := (i - 1) / degree
		if !q.less(i, parent) {
			break
		}
		q.swap(i, parent)
		i = parent
	}
}

func (q eventQueue) down(i int) {
	n := len(q)
	for {
		first := i*degree + 1
		if first >= n {
			return
		}
		min := first
		last := first + degree
		if last > n {
			last = n
		}
		for c := first + 1; c < last; c++ {
			if q.less(c, min) {
				min = c
			}
		}
		if !q.less(min, i) {
			return
		}
		q.swap(i, min)
		i = min
	}
}

// popMin removes and returns the earliest event.
func (q *eventQueue) popMin() *Event {
	old := *q
	n := len(old)
	e := old[0]
	last := old[n-1]
	old[n-1] = nil
	old = old[:n-1]
	*q = old
	if n > 1 {
		old[0] = last
		old.down(0)
	}
	return e
}

// Simulator owns the simulated clock and the pending event queue.
// The zero value is ready to use.
type Simulator struct {
	now     float64
	seq     uint64
	queue   eventQueue
	stopped bool
	fired   uint64
	// free recycles the records of fired Post events. Only events whose
	// handle never escaped are ever put here, so reuse can't resurrect a
	// stale Cancel.
	free []*Event
}

// New returns a Simulator with the clock at zero.
func New() *Simulator { return &Simulator{} }

// Now returns the current simulated time in seconds.
func (s *Simulator) Now() float64 { return s.now }

// Fired returns the number of events that have executed so far.
func (s *Simulator) Fired() uint64 { return s.fired }

// Pending returns the number of events still queued (including canceled
// events that have not yet been discarded).
func (s *Simulator) Pending() int { return len(s.queue) }

// At schedules fn to run at absolute simulated time t. Scheduling in the
// past (t < Now) panics: it always indicates a model bug, and silently
// reordering time would corrupt every downstream measurement.
func (s *Simulator) At(t float64, fn func()) *Event {
	return s.schedule(t, fn, false)
}

// After schedules fn to run d seconds from now. Negative d panics.
func (s *Simulator) After(d float64, fn func()) *Event {
	return s.schedule(s.now+d, fn, false)
}

// Post schedules fn at absolute time t like At, but returns no handle:
// the event cannot be canceled, and its record is recycled through the
// simulator's freelist after it fires. This is the zero-allocation
// scheduling path for the hot callers — per-hop control-packet
// delivery, per-packet data-plane forwarding, mobility steps — which
// never cancel individual events. Use At/After when a Cancel handle is
// actually needed.
func (s *Simulator) Post(t float64, fn func()) {
	s.schedule(t, fn, true)
}

// PostAfter schedules fn to run d seconds from now without a handle;
// it is to After what Post is to At. Negative d panics.
func (s *Simulator) PostAfter(d float64, fn func()) {
	s.schedule(s.now+d, fn, true)
}

// schedule validates, allocates (or recycles) and enqueues one event.
// Both pooled and handle-bearing events may draw from the freelist —
// every record on it is guaranteed handle-free — but only pooled ones
// return to it.
func (s *Simulator) schedule(t float64, fn func(), pooled bool) *Event {
	if fn == nil {
		panic("des: nil event callback")
	}
	if t < s.now {
		panic(fmt.Sprintf("des: schedule at %v before now %v", t, s.now))
	}
	if math.IsNaN(t) {
		panic("des: schedule at NaN")
	}
	var e *Event
	if n := len(s.free); n > 0 {
		e = s.free[n-1]
		s.free[n-1] = nil
		s.free = s.free[:n-1]
		*e = Event{time: t, seq: s.seq, fn: fn, pooled: pooled}
	} else {
		e = &Event{time: t, seq: s.seq, fn: fn, pooled: pooled}
	}
	s.seq++
	s.queue.push(e)
	return e
}

// Stop halts the simulation after the currently executing event returns.
func (s *Simulator) Stop() { s.stopped = true }

// step executes the earliest pending event. It reports false when the queue
// is empty. Canceled events are discarded without firing.
func (s *Simulator) step() bool {
	for len(s.queue) > 0 {
		e := s.queue.popMin()
		if e.cancel {
			// Canceled events are handle-bearing by construction
			// (pooled events expose no Cancel), so they are never
			// recycled.
			continue
		}
		s.now = e.time
		s.fired++
		fn := e.fn
		if e.pooled {
			// Recycle before firing: no handle exists, so the record
			// is free the moment it leaves the queue, and a callback
			// that immediately reschedules reuses it without touching
			// the allocator.
			e.fn = nil
			s.free = append(s.free, e)
		}
		fn()
		return true
	}
	return false
}

// Run executes events until the queue drains or Stop is called.
// It returns ErrStopped in the latter case.
func (s *Simulator) Run() error {
	s.stopped = false
	for !s.stopped {
		if !s.step() {
			return nil
		}
	}
	return ErrStopped
}

// RunUntil executes events with timestamps <= horizon. The clock is left at
// the horizon if the queue still holds later events, or at the last event
// time if the queue drained. It returns ErrStopped if Stop was called.
func (s *Simulator) RunUntil(horizon float64) error {
	if horizon < s.now {
		return fmt.Errorf("des: horizon %v before now %v", horizon, s.now)
	}
	s.stopped = false
	for !s.stopped {
		if len(s.queue) == 0 {
			s.now = horizon
			return nil
		}
		next := s.peek()
		if next == nil {
			s.now = horizon
			return nil
		}
		if next.time > horizon {
			s.now = horizon
			return nil
		}
		s.step()
	}
	return ErrStopped
}

// peek returns the earliest non-canceled event without removing it,
// discarding canceled events it encounters on the way.
func (s *Simulator) peek() *Event {
	for len(s.queue) > 0 {
		e := s.queue[0]
		if !e.cancel {
			return e
		}
		s.queue.popMin()
	}
	return nil
}

// Ticker invokes fn every period seconds until Cancel is called on the
// returned handle or the simulation ends.
type Ticker struct {
	sim    *Simulator
	period float64
	fn     func()
	ev     *Event
	done   bool
	// tick is the re-arm callback, built once at construction so each
	// period schedules a fresh event but not a fresh closure.
	tick func()
}

// Every starts a Ticker whose first firing is one period from now.
// It panics if period is not positive.
func (s *Simulator) Every(period float64, fn func()) *Ticker {
	if period <= 0 {
		panic("des: non-positive ticker period")
	}
	t := &Ticker{sim: s, period: period, fn: fn}
	t.tick = func() {
		if t.done {
			return
		}
		t.fn()
		if !t.done {
			t.arm()
		}
	}
	t.arm()
	return t
}

func (t *Ticker) arm() {
	t.ev = t.sim.After(t.period, t.tick)
}

// Cancel stops the ticker. It is safe to call more than once.
func (t *Ticker) Cancel() {
	t.done = true
	if t.ev != nil {
		t.ev.Cancel()
	}
}
