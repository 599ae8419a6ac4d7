// Package eventbus is the control plane's typed event stream: every
// layer of the resource manager (admission, handoff, advance reservation,
// rate adaptation, signaling, wireless variation, the data plane)
// publishes its decisions as typed events onto one deterministic,
// synchronous bus, and every observer — metrics counters, bandwidth
// watchers, drop logs, experiment harnesses, JSONL trace recorders — is a
// subscriber.
//
// # Ordering and determinism
//
// The bus is carried on the discrete-event simulator's clock (any Clock
// implementation works; des.Simulator satisfies it). Publish stamps each
// event with the current simulated time and a monotonically increasing
// sequence number, then dispatches to subscribers synchronously, in
// subscription order, before returning. Because the simulation is
// single-threaded, the stream is totally ordered by (Time, Seq), and two
// runs that schedule the same simulation work observe byte-identical
// traces — the property the trace-determinism regression test pins across
// worker counts.
//
// Rules for subscribers:
//
//  1. The subscriber set must be fixed before the simulation runs;
//     subscribing mid-run is safe but makes traces incomparable between
//     runs that subscribed at different points.
//  2. Subscribers must not mutate simulation state (schedule events,
//     admit connections, reseed RNGs). They observe; publishing layers
//     act. A subscriber that feeds decisions back into the control plane
//     would make behavior depend on who is listening.
//  3. Publishing from inside a subscriber is permitted (the nested event
//     is stamped after the outer one), but the same determinism caveats
//     apply.
//
// Publishing is cheap when nobody listens: a nil bus is a no-op receiver,
// and a bus without subscribers only advances its sequence counter, so
// the emitting layers publish unconditionally.
package eventbus

// Clock supplies the simulated time events are stamped with.
// *des.Simulator satisfies it.
type Clock interface {
	Now() float64
}

// Record is one stamped occurrence on the bus: the payload plus the
// (Time, Seq) coordinates that totally order the stream.
type Record struct {
	// Seq is the 1-based publish sequence number within this bus.
	Seq uint64
	// Time is the simulated time at which the event was published.
	Time float64
	// Event is the typed payload (one of the closed set in events.go).
	Event Event
}

// Subscriber observes stamped events.
type Subscriber func(Record)

// Bus is the synchronous publish/subscribe hub. The zero value is not
// usable; construct with New.
type Bus struct {
	clock  Clock
	seq    uint64
	all    []Subscriber
	byKind [kindCount][]Subscriber
	// rec is the recorder when it is the bus's first catch-all
	// subscriber: Pub hands it a kind nobody else listens for unboxed.
	rec *Recorder
}

// New returns a bus stamping events from the given clock.
func New(clock Clock) *Bus {
	if clock == nil {
		panic("eventbus: nil clock")
	}
	return &Bus{clock: clock}
}

// Subscribe registers fn for the given kinds, or for every event when no
// kinds are given. Subscribers are invoked in subscription order;
// kind-filtered subscribers run before catch-all subscribers of the same
// event.
func (b *Bus) Subscribe(fn Subscriber, kinds ...Kind) {
	if fn == nil {
		panic("eventbus: nil subscriber")
	}
	if len(kinds) == 0 {
		b.all = append(b.all, fn)
		return
	}
	for _, k := range kinds {
		b.byKind[k] = append(b.byKind[k], fn)
	}
}

// Publish stamps ev with the clock's current time and the next sequence
// number and dispatches it synchronously. Publishing on a nil bus is a
// no-op, so emitting layers need no listener checks.
//
// Publish takes the event as an interface, which means the caller boxes
// it (one heap allocation) whether or not anyone listens. The emitting
// layers use the generic Pub instead, which defers that boxing past the
// listener check; Publish remains for subscribers-of-subscribers and
// external callers holding an already-boxed Event.
func (b *Bus) Publish(ev Event) {
	if b == nil {
		return
	}
	b.seq++
	k := ev.Kind()
	if len(b.byKind[k]) == 0 && len(b.all) == 0 {
		return
	}
	b.dispatch(k, ev)
}

// Pub is the allocation-aware publish path: because the event arrives
// as a concrete type, the interface boxing happens inside — after the
// listener check — so publishing a kind nobody subscribed to costs zero
// allocations (the sequence number still advances, keeping the stamped
// stream identical whoever listens). When the only listener is the
// recorder attached first, it is handed the concrete event and nothing
// is boxed; any other listener makes Pub box exactly once, like Publish
// always did.
func Pub[T Event](b *Bus, ev T) {
	if b == nil {
		return
	}
	b.seq++
	k := ev.Kind()
	if len(b.byKind[k]) == 0 {
		switch {
		case len(b.all) == 0:
			return
		case len(b.all) == 1 && b.rec != nil:
			record(b.rec, b.seq, b.clock.Now(), ev)
			return
		}
	}
	b.dispatch(k, ev)
}

// dispatch stamps and fans out one event to its kind-filtered and
// catch-all subscribers, in subscription order.
func (b *Bus) dispatch(k Kind, ev Event) {
	rec := Record{Seq: b.seq, Time: b.clock.Now(), Event: ev}
	for _, fn := range b.byKind[k] {
		fn(rec)
	}
	for _, fn := range b.all {
		fn(rec)
	}
}

// Seq returns the number of events published so far.
func (b *Bus) Seq() uint64 {
	if b == nil {
		return 0
	}
	return b.seq
}
