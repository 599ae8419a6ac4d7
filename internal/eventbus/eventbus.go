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
// implementation works; des.Simulator satisfies it). Pub stamps each
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

// subscriber observes stamped events.
type subscriber func(Record)

// entry is one subscription, exactly one of whose fields is set: fn is a
// Subscribe subscriber, fed the stamped Record; typed holds the func(T)
// On registered and rec the recorder of AttachRecorder, both fed the
// concrete event.
type entry struct {
	fn    subscriber
	typed any
	rec   *Recorder
}

// Bus is the synchronous publish/subscribe hub. The zero value is not
// usable; construct with New.
type Bus struct {
	clock  Clock
	seq    uint64
	all    []entry
	byKind [kindCount][]entry
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
func (b *Bus) Subscribe(fn subscriber, kinds ...Kind) {
	if fn == nil {
		panic("eventbus: nil subscriber")
	}
	if len(kinds) == 0 {
		b.all = append(b.all, entry{fn: fn})
		return
	}
	for _, k := range kinds {
		b.byKind[k] = append(b.byKind[k], entry{fn: fn})
	}
}

// On registers fn for the events of type T. It is a kind-filtered
// subscription like Subscribe(…, kind of T) and takes the same place in
// the order, but Pub calls it with the concrete event, unboxed and
// unstamped.
func On[T Event](b *Bus, fn func(T)) {
	if fn == nil {
		panic("eventbus: nil subscriber")
	}
	var zero T
	k := zero.Kind()
	b.byKind[k] = append(b.byKind[k], entry{typed: fn})
}

// Pub stamps ev with the clock's current time and the next sequence
// number and dispatches it synchronously; publishing on a nil bus is a
// no-op, so emitting layers need no listener checks. Its one dispatch
// rule: every subscription of the event runs in subscription order,
// kind-filtered ones before catch-all ones — but typed handlers (On)
// and the recorder are handed the concrete event,
// and only subscriber functions see a Record. The event is boxed into
// that Record at most once, when the first subscriber is reached, and
// the one box is shared by every subscriber after it. A kind nobody
// listens to, or that only typed handlers and the recorder hear, costs
// zero allocations; the sequence number advances either way, keeping
// the stamped stream identical whoever listens.
func Pub[T Event](b *Bus, ev T) {
	if b == nil {
		return
	}
	b.seq++
	k := ev.Kind()
	kinds, all := b.byKind[k], b.all
	if len(kinds) == 0 && len(all) == 0 {
		return
	}
	rec := Record{Seq: b.seq, Time: b.clock.Now()}
	for i := range kinds {
		deliver(&kinds[i], &rec, ev)
	}
	for i := range all {
		deliver(&all[i], &rec, ev)
	}
}

// deliver hands ev to one subscription, boxing it into rec on the first
// subscriber that needs it.
func deliver[T Event](e *entry, rec *Record, ev T) {
	switch {
	case e.rec != nil:
		record(e.rec, rec.Seq, rec.Time, ev)
	case e.typed != nil:
		e.typed.(func(T))(ev)
	default:
		if rec.Event == nil {
			rec.Event = ev
		}
		e.fn(*rec)
	}
}

// Seq returns the number of events published so far.
func (b *Bus) Seq() uint64 {
	if b == nil {
		return 0
	}
	return b.seq
}
