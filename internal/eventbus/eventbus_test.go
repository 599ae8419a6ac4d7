package eventbus

import (
	"bytes"
	"strings"
	"testing"
)

// fakeClock lets the tests control the stamped time directly.
type fakeClock struct{ t float64 }

func (c *fakeClock) Now() float64 { return c.t }

func TestPublishStampsTimeAndSeq(t *testing.T) {
	clk := &fakeClock{}
	bus := New(clk)
	var got []Record
	bus.Subscribe(func(r Record) { got = append(got, r) })

	Pub(bus, ConnectionRequested{Portable: "p0"})
	clk.t = 2.5
	Pub(bus, ConnectionBlocked{Portable: "p0", Reason: "bandwidth"})

	if len(got) != 2 {
		t.Fatalf("got %d records, want 2", len(got))
	}
	if got[0].Seq != 1 || got[0].Time != 0 {
		t.Errorf("first record stamped (%d, %g), want (1, 0)", got[0].Seq, got[0].Time)
	}
	if got[1].Seq != 2 || got[1].Time != 2.5 {
		t.Errorf("second record stamped (%d, %g), want (2, 2.5)", got[1].Seq, got[1].Time)
	}
	if _, ok := got[1].Event.(ConnectionBlocked); !ok {
		t.Errorf("second event is %T, want ConnectionBlocked", got[1].Event)
	}
	if bus.Seq() != 2 {
		t.Errorf("Seq() = %d, want 2", bus.Seq())
	}
}

func TestKindFiltering(t *testing.T) {
	bus := New(&fakeClock{})
	var holds, aborts, all int
	bus.Subscribe(func(Record) { holds++ }, kindSignalHold)
	bus.Subscribe(func(r Record) {
		switch r.Event.Kind() {
		case kindSignalHold, KindSignalAbort:
			aborts++
		}
	}, kindSignalHold, KindSignalAbort)
	bus.Subscribe(func(Record) { all++ })

	Pub(bus, SignalHold{Conn: "c", Link: "l"})
	Pub(bus, SignalAbort{Conn: "c", Reason: "timeout"})
	Pub(bus, SignalCommit{Conn: "c"})

	if holds != 1 {
		t.Errorf("hold-only subscriber saw %d events, want 1", holds)
	}
	if aborts != 2 {
		t.Errorf("hold+abort subscriber saw %d events, want 2", aborts)
	}
	if all != 3 {
		t.Errorf("catch-all subscriber saw %d events, want 3", all)
	}
}

func TestDispatchOrderIsSubscriptionOrder(t *testing.T) {
	bus := New(&fakeClock{})
	var order []string
	bus.Subscribe(func(Record) { order = append(order, "kind-a") }, kindPoolClaim)
	bus.Subscribe(func(Record) { order = append(order, "kind-b") }, kindPoolClaim)
	bus.Subscribe(func(Record) { order = append(order, "all-a") })
	bus.Subscribe(func(Record) { order = append(order, "all-b") })

	Pub(bus, PoolClaim{Portable: "p"})

	want := "kind-a,kind-b,all-a,all-b"
	if got := strings.Join(order, ","); got != want {
		t.Errorf("dispatch order %q, want %q", got, want)
	}
}

func TestNilBusAndNoSubscribers(t *testing.T) {
	var nilBus *Bus
	Pub(nilBus, ConnectionClosed{Conn: "c"}) // must not panic
	if nilBus.Seq() != 0 {
		t.Errorf("nil bus Seq() = %d, want 0", nilBus.Seq())
	}

	bus := New(&fakeClock{})
	Pub(bus, ConnectionClosed{Conn: "c"})
	if bus.Seq() != 1 {
		t.Errorf("subscriber-less bus Seq() = %d, want 1", bus.Seq())
	}
}

func TestKindStringsAreUniqueAndNamed(t *testing.T) {
	seen := map[string]Kind{}
	for k := 0; k < kindCount; k++ {
		name := Kind(k).String()
		if name == "" || name == "unknown" {
			t.Errorf("Kind(%d) has no wire name", k)
		}
		if prev, dup := seen[name]; dup {
			t.Errorf("Kind(%d) and Kind(%d) share wire name %q", k, prev, name)
		}
		seen[name] = Kind(k)
	}
}

func TestRecorderEmitsDeterministicJSONL(t *testing.T) {
	clk := &fakeClock{}
	bus := New(clk)
	var buf bytes.Buffer
	rec := AttachRecorder(bus, &buf)

	Pub(bus, ConnectionRequested{Portable: "p0"})
	clk.t = 1.25
	Pub(bus, AdmissionDecision{Conn: "conn-0", Class: "new", Admitted: true, Bandwidth: 64000})

	want := `{"seq":1,"t":0,"type":"connection-requested","ev":{"portable":"p0"}}
{"seq":2,"t":1.25,"type":"admission-decision","ev":{"conn":"conn-0","kind":"new","admitted":true,"bw":64000}}
`
	if got := buf.String(); got != want {
		t.Errorf("trace drifted:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
	if rec.Err() != nil {
		t.Errorf("recorder error: %v", rec.Err())
	}
}

// errWriter fails after the first write to exercise error latching.
type errWriter struct{ n int }

type sentinelErr struct{}

func (sentinelErr) Error() string { return "sentinel" }

func (w *errWriter) Write(p []byte) (int, error) {
	w.n++
	if w.n > 1 {
		return 0, sentinelErr{}
	}
	return len(p), nil
}

func TestRecorderLatchesFirstWriteError(t *testing.T) {
	bus := New(&fakeClock{})
	w := &errWriter{}
	rec := AttachRecorder(bus, w)
	Pub(bus, ConnectionRequested{Portable: "a"})
	Pub(bus, ConnectionRequested{Portable: "b"})
	Pub(bus, ConnectionRequested{Portable: "c"})
	if rec.Err() == nil {
		t.Fatal("expected latched write error")
	}
	if w.n != 2 {
		t.Errorf("writer called %d times, want 2 (latched after first failure)", w.n)
	}
}
