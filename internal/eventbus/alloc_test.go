package eventbus

import (
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
	bus.Subscribe(func(Record) { n++ }, KindConnectionRequested)
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
