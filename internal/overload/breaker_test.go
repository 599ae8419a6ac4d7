package overload

import (
	"testing"

	"armnet/internal/des"
	"armnet/internal/eventbus"
)

func newTestBreaker(pol Policy) (*des.Simulator, *circuitBreaker, *[]string) {
	sim := des.New()
	bus := eventbus.New(sim)
	var path []string
	eventbus.On(bus, func(ev eventbus.BreakerState) {
		path = append(path, ev.From+">"+ev.To+":"+ev.Reason)
	})
	return sim, newBreaker(sim, bus, pol), &path
}

func breakerPol() Policy {
	p := Default()
	p.BreakerFailRate = 0.5
	p.BreakerWindow = 4
	p.BreakerCooldown = 10
	p.BreakerProbes = 2
	return p
}

func TestBreakerTripsOnFailureRate(t *testing.T) {
	_, b, path := newTestBreaker(breakerPol())
	// Window not yet full: even all-failures must not trip.
	b.record(true)
	b.record(true)
	if b.state != breakerClosed {
		t.Fatal("breaker tripped before the window filled")
	}
	b.record(false)
	b.record(true) // window full: 3/4 ≥ 0.5
	if b.state != breakerOpen {
		t.Fatal("breaker did not trip at 75% failures")
	}
	if b.Trips != 1 {
		t.Fatalf("Trips = %d, want 1", b.Trips)
	}
	if len(*path) != 1 || (*path)[0] != "closed>open:failure-rate" {
		t.Fatalf("events = %v", *path)
	}
}

func TestBreakerWindowSlides(t *testing.T) {
	pol := breakerPol()
	pol.BreakerFailRate = 0.75
	_, b, _ := newTestBreaker(pol)
	// Four failures total, but never three inside one 4-wide window: a
	// cumulative count would trip, the sliding window must not.
	for _, failed := range []bool{true, true, false, false, false, false, true, true} {
		b.record(failed)
		if b.state != breakerClosed {
			t.Fatal("breaker tripped on failures spread across windows")
		}
	}
}

func TestBreakerOpenFastFailsThenHalfOpens(t *testing.T) {
	sim, b, path := newTestBreaker(breakerPol())
	for i := 0; i < 4; i++ {
		b.record(true)
	}
	if b.state != breakerOpen {
		t.Fatal("breaker not open")
	}
	for i := 0; i < 3; i++ {
		if b.allow() {
			t.Fatal("open breaker admitted a setup")
		}
	}
	if b.FastFails != 3 {
		t.Fatalf("FastFails = %d, want 3", b.FastFails)
	}
	// A late completion of a pre-trip session is ignored while open.
	b.record(false)
	if b.state != breakerOpen {
		t.Fatal("late completion moved an open breaker")
	}
	if err := sim.RunUntil(10.5); err != nil {
		t.Fatal(err)
	}
	if b.state != breakerHalfOpen {
		t.Fatal("breaker did not half-open after the cooldown")
	}
	// Exactly BreakerProbes trial setups pass; the next fast-fails.
	if !b.allow() || !b.allow() {
		t.Fatal("half-open breaker refused its probe budget")
	}
	if b.allow() {
		t.Fatal("half-open breaker exceeded its probe budget")
	}
	// First observed probe outcome decides: success closes.
	b.record(false)
	if b.state != breakerClosed {
		t.Fatal("successful probe did not close the breaker")
	}
	want := []string{
		"closed>open:failure-rate",
		"open>half-open:cooldown",
		"half-open>closed:probe-succeeded",
	}
	if len(*path) != len(want) {
		t.Fatalf("events = %v, want %v", *path, want)
	}
	for i := range want {
		if (*path)[i] != want[i] {
			t.Fatalf("events = %v, want %v", *path, want)
		}
	}
}

func TestBreakerProbeFailureRetrips(t *testing.T) {
	sim, b, _ := newTestBreaker(breakerPol())
	for i := 0; i < 4; i++ {
		b.record(true)
	}
	if err := sim.RunUntil(10.5); err != nil {
		t.Fatal(err)
	}
	if b.state != breakerHalfOpen {
		t.Fatal("not half-open")
	}
	b.allow()
	b.record(true)
	if b.state != breakerOpen {
		t.Fatal("failed probe did not re-trip")
	}
	if b.Trips != 2 {
		t.Fatalf("Trips = %d, want 2", b.Trips)
	}
	// The re-trip arms a fresh cooldown; it half-opens again and a clean
	// probe closes it — the full recovery cycle is repeatable.
	if err := sim.RunUntil(21); err != nil {
		t.Fatal(err)
	}
	if b.state != breakerHalfOpen {
		t.Fatal("second cooldown did not half-open")
	}
	b.allow()
	b.record(false)
	if b.state != breakerClosed {
		t.Fatal("second recovery did not close")
	}
	// A fresh trip needs a full new window: the close reset it.
	b.record(true)
	b.record(true)
	if b.state != breakerClosed {
		t.Fatal("breaker reused pre-trip window state after closing")
	}
}

func TestBreakerRetransmitPressureTrip(t *testing.T) {
	pol := breakerPol()
	pol.BreakerRetrans = 100
	_, b, path := newTestBreaker(pol)
	b.noteRetransmits(99)
	if b.state != breakerClosed {
		t.Fatal("tripped below the retransmission threshold")
	}
	b.noteRetransmits(100)
	if b.state != breakerOpen {
		t.Fatal("did not trip on retransmission pressure")
	}
	if (*path)[0] != "closed>open:retransmit-pressure" {
		t.Fatalf("events = %v", *path)
	}
	// Further pressure while already open is a no-op, not a double trip.
	b.noteRetransmits(500)
	if b.Trips != 1 {
		t.Fatalf("Trips = %d, want 1", b.Trips)
	}
}

func TestBreakerRetransmitTriggerDisabledByDefault(t *testing.T) {
	_, b, _ := newTestBreaker(breakerPol()) // BreakerRetrans = 0
	b.noteRetransmits(1 << 20)
	if b.state != breakerClosed {
		t.Fatal("disabled retransmission trigger tripped the breaker")
	}
}
