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
	"math/bits"
)

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

func (q eventQueue) less(i, j int) bool { return before(q[i], q[j]) }

// before is the queue's total order: time, then schedule order.
func before(a, b *Event) bool {
	if a.time != b.time {
		return a.time < b.time
	}
	return a.seq < b.seq
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

// laneCount is the number of fixed-delay FIFO lanes beside the heap.
// The maxmin session posts nearly every control packet at one of two
// delays (its ADVERTISE round trip and its UPDATE), so a few lanes
// carry almost every event; the rest go to the heap.
const laneCount = 4

// lane is a FIFO ring of events all scheduled with the same relative
// delay. For a fixed d and a non-decreasing clock, fl(now+d) never
// decreases (IEEE rounding is monotone) and seq only grows, so events
// appended in schedule order are already in (time, seq) order: the
// lane needs no compare at push, and its head is its minimum.
type lane struct {
	key  uint64   // math.Float64bits of the delay
	ring []*Event // power-of-two length, grown only when full
	head int
	n    int
}

func (l *lane) push(e *Event) {
	if l.n == len(l.ring) {
		ring := make([]*Event, max(8, 2*len(l.ring)))
		k := copy(ring, l.ring[l.head:])
		copy(ring[k:], l.ring[:l.head])
		l.ring, l.head = ring, 0
	}
	l.ring[(l.head+l.n)&(len(l.ring)-1)] = e
	l.n++
}

// pop drops the head and returns how many events remain.
func (l *lane) pop() int {
	l.ring[l.head] = nil
	l.head = (l.head + 1) & (len(l.ring) - 1)
	l.n--
	return l.n
}

// Simulator owns the simulated clock and the pending event queue.
// The zero value is ready to use.
type Simulator struct {
	now   float64
	seq   uint64
	queue eventQueue
	// lanes hold After/PostAfter events by delay; occupied has bit i
	// set iff lanes[i] is non-empty, so a pop with every lane empty
	// costs what a heap-only pop does. A lane takes a new delay only
	// while it is empty.
	lanes    [laneCount]lane
	occupied uint8
	fired    uint64
	// free recycles the records of fired Post events. Only events whose
	// handle never escaped are ever put here, so reuse can't resurrect a
	// stale Cancel.
	free []*Event
	// slab is where a record comes from when free is empty: the unused
	// tail of a block of slabSize, so a handle-bearing event, whose
	// record is never recycled, costs a fraction of an allocation.
	slab []Event
}

// slabSize is the number of event records allocated at once.
const slabSize = 64

// New returns a Simulator with the clock at zero.
func New() *Simulator { return &Simulator{} }

// Now returns the current simulated time in seconds.
func (s *Simulator) Now() float64 { return s.now }

// Fired returns the number of events that have executed so far.
func (s *Simulator) Fired() uint64 { return s.fired }

// Pending returns the number of events still queued (including canceled
// events that have not yet been discarded).
func (s *Simulator) Pending() int {
	n := len(s.queue)
	for i := range s.lanes {
		n += s.lanes[i].n
	}
	return n
}

// At schedules fn to run at absolute simulated time t. Scheduling in the
// past (t < Now) panics: it always indicates a model bug, and silently
// reordering time would corrupt every downstream measurement.
func (s *Simulator) At(t float64, fn func()) *Event {
	return s.schedule(t, absolute, fn, false)
}

// After schedules fn to run d seconds from now. Negative d panics.
func (s *Simulator) After(d float64, fn func()) *Event {
	return s.schedule(s.now+d, math.Float64bits(d), fn, false)
}

// Post schedules fn at absolute time t like At, but returns no handle:
// the event cannot be canceled, and its record is recycled through the
// simulator's freelist after it fires. This is the zero-allocation
// scheduling path for the hot callers — per-hop control-packet
// delivery, per-packet data-plane forwarding, mobility steps — which
// never cancel individual events. Use At/After when a Cancel handle is
// actually needed.
func (s *Simulator) Post(t float64, fn func()) {
	s.schedule(t, absolute, fn, true)
}

// PostAfter schedules fn to run d seconds from now without a handle;
// it is to After what Post is to At. Negative d panics.
func (s *Simulator) PostAfter(d float64, fn func()) {
	s.schedule(s.now+d, math.Float64bits(d), fn, true)
}

// absolute is the key of an event scheduled at an absolute time: the
// bits of a NaN, which no lane can hold, since a NaN delay is refused.
// Such an event bears no fixed relation to now, so it goes to the heap.
const absolute = 0x7ff8000000000001

// schedule validates, allocates (or recycles) and enqueues one event:
// on the lane holding delay key, else on an empty lane, which takes the
// key, else on the heap. Both pooled and handle-bearing events may draw
// from the freelist — every record on it is guaranteed handle-free —
// but only pooled ones return to it.
func (s *Simulator) schedule(t float64, key uint64, fn func(), pooled bool) *Event {
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
		if len(s.slab) == 0 {
			s.slab = make([]Event, slabSize)
		}
		e = &s.slab[0]
		s.slab = s.slab[1:]
		*e = Event{time: t, seq: s.seq, fn: fn, pooled: pooled}
	}
	s.seq++
	if key == absolute || !s.toLane(e, key) {
		s.queue.push(e)
	}
	return e
}

// toLane appends e to the lane holding delay key, else to an empty lane,
// which takes the key; it reports false when every lane holds another
// delay.
func (s *Simulator) toLane(e *Event, key uint64) bool {
	for m := s.occupied; m != 0; m &= m - 1 {
		if i := bits.TrailingZeros8(m); s.lanes[i].key == key {
			s.lanes[i].push(e)
			return true
		}
	}
	free := ^s.occupied & (1<<laneCount - 1)
	if free == 0 {
		return false
	}
	i := bits.TrailingZeros8(free)
	s.lanes[i].key = key
	s.lanes[i].push(e)
	s.occupied |= 1 << i
	return true
}

// step executes the earliest pending event. It reports false when the queue
// is empty. Canceled events are discarded without firing.
func (s *Simulator) step() bool { return s.stepUntil(forever) }

// forever is the horizon of an unbounded step.
var forever = math.Inf(1)

// stepUntil executes the earliest pending event in (time, seq) order —
// the minimum over the heap top and the lane heads — if it fires at or
// before horizon, and reports whether it did. Canceled events reaching
// the front are discarded first, whatever their time, as a heap-only
// queue would, so Pending never depends on where an event waited.
func (s *Simulator) stepUntil(horizon float64) bool {
	for {
		var e *Event
		src := -1
		if len(s.queue) > 0 {
			e = s.queue[0]
		}
		for m := s.occupied; m != 0; m &= m - 1 {
			i := bits.TrailingZeros8(m)
			l := &s.lanes[i]
			h := l.ring[l.head]
			if e == nil || before(h, e) {
				e, src = h, i
			}
		}
		if e == nil || (!e.cancel && e.time > horizon) {
			return false
		}
		if src < 0 {
			s.queue.popMin()
		} else if l := &s.lanes[src]; l.pop() == 0 {
			s.occupied &^= 1 << src
		}
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
}

// Run executes events until the queue drains. It returns nil.
func (s *Simulator) Run() error {
	for s.step() {
	}
	return nil
}

// RunUntil executes events with timestamps <= horizon and leaves the
// clock at the horizon, whether later events remain or the queue
// drained. It returns an error for a NaN horizon or one before Now.
func (s *Simulator) RunUntil(horizon float64) error {
	if math.IsNaN(horizon) {
		return errors.New("des: horizon is NaN")
	}
	if horizon < s.now {
		return fmt.Errorf("des: horizon %v before now %v", horizon, s.now)
	}
	for s.stepUntil(horizon) {
	}
	s.now = horizon
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
