package eventbus

import (
	"io"
	"testing"

	"armnet/internal/raceflag"
)

// TestPubNoSubscribersAllocFree pins the bus's quiet-path budget: with
// nobody subscribed to the kind, Pub must not box the event — the whole
// point of taking the concrete type is that the interface conversion
// sits behind the listener check. Emitting layers publish
// unconditionally, so this path runs on every control-plane decision of
// an untraced simulation.
func TestPubNoSubscribersAllocFree(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("race detector adds bookkeeping allocations")
	}
	bus := New(&stubClock{})
	got := testing.AllocsPerRun(1000, func() {
		Pub(bus, ConnectionRequested{Portable: "p0"})
	})
	if got != 0 {
		t.Fatalf("Pub with no subscribers allocates %v/op, want 0", got)
	}
}

// TestPubSubscribedBoxesOnce pins the listened-to path at exactly the
// one boxing allocation dispatch requires.
func TestPubSubscribedBoxesOnce(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("race detector adds bookkeeping allocations")
	}
	bus := New(&stubClock{})
	n := 0
	bus.Subscribe(func(Record) { n++ }, kindConnectionRequested)
	got := testing.AllocsPerRun(1000, func() {
		Pub(bus, ConnectionRequested{Portable: "p0"})
	})
	if got != 1 {
		t.Fatalf("Pub with a subscriber allocates %v/op, want exactly 1 (interface boxing)", got)
	}
	if n == 0 {
		t.Fatal("subscriber never ran")
	}
}

// TestPubRecorderOnlyAllocFree pins the typed route: with the recorder
// the bus's only listener, Pub hands it the concrete event and a warm
// recorded publish allocates nothing.
func TestPubRecorderOnlyAllocFree(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("race detector adds bookkeeping allocations")
	}
	var sink TraceBuffer
	bus := New(&stubClock{})
	rec := AttachRecorder(bus, &sink)
	pub := func() { Pub(bus, wireDeliverySample) }
	pub() // grow the scratch line and the first chunk
	if got := testing.AllocsPerRun(1000, pub); got != 0 {
		t.Fatalf("Pub to a recorder-only bus allocates %v/op, want 0", got)
	}
	if rec.Err() != nil {
		t.Fatal(rec.Err())
	}
}

// TestPubTypedHandlersAllocFree pins the typed route: handlers registered
// with On are called with the concrete event, so a kind that only they
// (and the recorder) hear is published without a box.
func TestPubTypedHandlersAllocFree(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("race detector adds bookkeeping allocations")
	}
	bus := New(&stubClock{})
	n := 0
	On(bus, func(ConnectionRequested) { n++ })
	On(bus, func(ev ConnectionRequested) { n += len(ev.Portable) })
	AttachRecorder(bus, io.Discard)
	pub := func() { Pub(bus, ConnectionRequested{Portable: "p0"}) }
	pub()
	if got := testing.AllocsPerRun(1000, pub); got != 0 {
		t.Fatalf("Pub to typed handlers and the recorder allocates %v/op, want 0", got)
	}
	if n == 0 {
		t.Fatal("typed handler never ran")
	}
}

// TestPubSharesOneBox pins the Record route at exactly one box however
// many subscriber functions hear the event, wherever the typed handlers
// and the recorder sit among them.
func TestPubSharesOneBox(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("race detector adds bookkeeping allocations")
	}
	bus := New(&stubClock{})
	var seen []Event
	bus.Subscribe(func(r Record) { seen = append(seen[:0], r.Event) }, kindConnectionRequested)
	On(bus, func(ConnectionRequested) {})
	bus.Subscribe(func(r Record) { seen = append(seen, r.Event) }, kindConnectionRequested)
	AttachRecorder(bus, io.Discard)
	bus.Subscribe(func(r Record) { seen = append(seen, r.Event) })
	pub := func() { Pub(bus, ConnectionRequested{Portable: "p0"}) }
	pub()
	if got := testing.AllocsPerRun(1000, pub); got != 1 {
		t.Fatalf("Pub to three Subscribers allocates %v/op, want exactly 1 (the shared box)", got)
	}
	if len(seen) != 3 {
		t.Fatalf("%d Subscribers ran, want 3", len(seen))
	}
}
