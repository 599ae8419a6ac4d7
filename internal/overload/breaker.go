package overload

import (
	"armnet/internal/des"
	"armnet/internal/eventbus"
)

// breakerState is the circuit breaker's condition.
type breakerState int

const (
	// breakerClosed passes setups through and watches the failure rate.
	breakerClosed breakerState = iota
	// breakerOpen fails every non-handoff setup fast with ErrBusy.
	breakerOpen
	// breakerHalfOpen admits a bounded number of trial setups; the
	// first observed outcome decides between closing and re-tripping.
	breakerHalfOpen
)

var breakerNames = [...]string{"closed", "open", "half-open"}

// String returns the stable wire name used in events and traces.
func (s breakerState) String() string {
	if s < 0 || int(s) >= len(breakerNames) {
		return "unknown"
	}
	return breakerNames[s]
}

// circuitBreaker is the signaling circuit breaker: when the setup failure rate
// over a sliding window (or per-sample retransmission pressure) crosses
// the policy threshold it opens for a cooldown, fails fast, then
// half-opens and probes before closing. All transitions run on the
// simulator clock and publish BreakerState events.
type circuitBreaker struct {
	sim *des.Simulator
	bus *eventbus.Bus
	pol Policy

	state  breakerState
	window []bool // ring buffer of outcome failures
	next   int
	filled int
	fails  int
	probes int
	gen    int // invalidates stale cooldown timers

	// Trips counts transitions into the open state; FastFails counts
	// setups refused while open or out of probes.
	Trips, FastFails int
}

func newBreaker(sim *des.Simulator, bus *eventbus.Bus, pol Policy) *circuitBreaker {
	return &circuitBreaker{sim: sim, bus: bus, pol: pol, window: make([]bool, pol.BreakerWindow)}
}

// allow reports whether a new setup may proceed. While half-open it
// consumes one probe slot per call.
func (b *circuitBreaker) allow() bool {
	switch b.state {
	case breakerOpen:
		b.FastFails++
		return false
	case breakerHalfOpen:
		if b.probes <= 0 {
			b.FastFails++
			return false
		}
		b.probes--
		return true
	}
	return true
}

// record folds one finished setup outcome into the breaker. While open,
// late completions of sessions admitted before the trip are ignored.
func (b *circuitBreaker) record(failed bool) {
	switch b.state {
	case breakerHalfOpen:
		if failed {
			b.trip("probe-failed")
		} else {
			b.close("probe-succeeded")
		}
	case breakerClosed:
		if b.filled < len(b.window) {
			b.filled++
		} else if b.window[b.next] {
			b.fails--
		}
		b.window[b.next] = failed
		if failed {
			b.fails++
		}
		b.next = (b.next + 1) % len(b.window)
		if b.filled == len(b.window) &&
			float64(b.fails)/float64(len(b.window)) >= b.pol.BreakerFailRate {
			b.trip("failure-rate")
		}
	}
}

// noteRetransmits trips the breaker on raw retransmission pressure: the
// detector reports the delta of control retransmissions per sample.
func (b *circuitBreaker) noteRetransmits(delta int) {
	if b.state == breakerClosed && b.pol.BreakerRetrans > 0 && delta >= b.pol.BreakerRetrans {
		b.trip("retransmit-pressure")
	}
}

func (b *circuitBreaker) trip(reason string) {
	from := b.state
	b.state = breakerOpen
	b.Trips++
	b.resetWindow()
	b.gen++
	gen := b.gen
	eventbus.Pub(b.bus, eventbus.BreakerState{From: from.String(), To: "open", Reason: reason})
	b.sim.PostAfter(b.pol.BreakerCooldown, func() {
		if b.gen != gen || b.state != breakerOpen {
			return
		}
		b.state = breakerHalfOpen
		b.probes = b.pol.BreakerProbes
		eventbus.Pub(b.bus, eventbus.BreakerState{From: "open", To: "half-open", Reason: "cooldown"})
	})
}

func (b *circuitBreaker) close(reason string) {
	from := b.state
	b.state = breakerClosed
	b.resetWindow()
	eventbus.Pub(b.bus, eventbus.BreakerState{From: from.String(), To: "closed", Reason: reason})
}

func (b *circuitBreaker) resetWindow() {
	for i := range b.window {
		b.window[i] = false
	}
	b.next, b.filled, b.fails, b.probes = 0, 0, 0, 0
}
