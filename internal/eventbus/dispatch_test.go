package eventbus

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

// refBus is the dispatcher as it was before typed handlers: every
// subscription a subscriber, each event boxed once into one Record and
// run through the kind-filtered subscribers, then the catch-all ones,
// in subscription order. It is the reference Pub is checked against.
type refBus struct {
	clock  Clock
	seq    uint64
	all    []subscriber
	byKind [kindCount][]subscriber
}

func (b *refBus) subscribe(fn subscriber, kinds ...Kind) {
	if len(kinds) == 0 {
		b.all = append(b.all, fn)
		return
	}
	for _, k := range kinds {
		b.byKind[k] = append(b.byKind[k], fn)
	}
}

func (b *refBus) publish(ev Event) {
	b.seq++
	k := ev.Kind()
	if len(b.byKind[k]) == 0 && len(b.all) == 0 {
		return
	}
	rec := Record{Seq: b.seq, Time: b.clock.Now(), Event: ev}
	for _, fn := range b.byKind[k] {
		fn(rec)
	}
	for _, fn := range b.all {
		fn(rec)
	}
}

// call is one subscriber invocation as the oracle logs it; a recorder's
// is the line it wrote.
type call struct {
	sub  int
	seq  uint64
	t    float64
	ev   Event
	line string
}

// callLog collects the invocations of one bus's subscribers.
type callLog []call

// lineWriter logs each recorder write as a call of subscriber sub.
type lineWriter struct {
	log *callLog
	sub int
}

func (w lineWriter) Write(p []byte) (int, error) {
	*w.log = append(*w.log, call{sub: w.sub, line: string(p)})
	return len(p), nil
}

// oracleKinds are the event types the oracle publishes and subscribes to.
var oracleKinds = []Kind{kindHandoffAttempt, KindHandoffOutcome, kindBandwidthChange, kindPoolClaim}

func randomEvent(rng *rand.Rand) Event {
	conn := fmt.Sprintf("c%d", rng.Intn(9))
	switch oracleKinds[rng.Intn(len(oracleKinds))] {
	case kindHandoffAttempt:
		return HandoffAttempt{Conn: conn, Portable: "p", From: "a", To: "b", Predicted: rng.Intn(2) == 0}
	case KindHandoffOutcome:
		return HandoffOutcome{Conn: conn, Portable: "p", Dropped: rng.Intn(2) == 0}
	case kindBandwidthChange:
		return BandwidthChange{Conn: conn, Bandwidth: float64(rng.Intn(1e6))}
	default:
		return PoolClaim{Portable: conn, From: "a", To: "b"}
	}
}

// pubAny publishes ev through Pub at its concrete type.
func pubAny(b *Bus, ev Event) {
	switch ev := ev.(type) {
	case HandoffAttempt:
		Pub(b, ev)
	case HandoffOutcome:
		Pub(b, ev)
	case BandwidthChange:
		Pub(b, ev)
	case PoolClaim:
		Pub(b, ev)
	default:
		panic(fmt.Sprintf("pubAny: %T", ev))
	}
}

// onLogged subscribes subscriber sub for T: on bus through On, logging
// the stamp the bus holds while it runs; on ref as the Record adapter
// the typed handler stands for.
func onLogged[T Event](bus *Bus, clk Clock, got *callLog, ref *refBus, want *callLog, sub int) {
	On(bus, func(ev T) { *got = append(*got, call{sub: sub, seq: bus.Seq(), t: clk.Now(), ev: ev}) })
	var zero T
	ref.subscribe(func(r Record) {
		*want = append(*want, call{sub: sub, seq: r.Seq, t: r.Time, ev: r.Event.(T)})
	}, zero.Kind())
}

// oracleRig subscribes the same random mix of typed handlers, Record
// subscribers (kind-filtered and catch-all) and recorders to a Bus and
// a refBus on one clock, and returns the two call logs.
func oracleRig(rng *rand.Rand) (bus *Bus, ref *refBus, clk *fakeClock, got, want *callLog) {
	clk = &fakeClock{}
	bus, ref = New(clk), &refBus{clock: clk}
	got, want = &callLog{}, &callLog{}
	for sub := range 2 + rng.Intn(10) {
		switch rng.Intn(4) {
		case 0: // typed handler
			switch oracleKinds[rng.Intn(len(oracleKinds))] {
			case kindHandoffAttempt:
				onLogged[HandoffAttempt](bus, clk, got, ref, want, sub)
			case KindHandoffOutcome:
				onLogged[HandoffOutcome](bus, clk, got, ref, want, sub)
			case kindBandwidthChange:
				onLogged[BandwidthChange](bus, clk, got, ref, want, sub)
			default:
				onLogged[PoolClaim](bus, clk, got, ref, want, sub)
			}
		case 1: // recorder
			AttachRecorder(bus, lineWriter{got, sub})
			r := &Recorder{w: lineWriter{want, sub}}
			ref.subscribe(r.observe)
		default: // Record subscriber, catch-all or over a random kind set
			var kinds []Kind
			for _, k := range oracleKinds {
				if rng.Intn(3) == 0 {
					kinds = append(kinds, k)
				}
			}
			logTo := func(l *callLog) subscriber {
				return func(r Record) { *l = append(*l, call{sub: sub, seq: r.Seq, t: r.Time, ev: r.Event}) }
			}
			bus.Subscribe(logTo(got), kinds...)
			ref.subscribe(logTo(want), kinds...)
		}
	}
	return bus, ref, clk, got, want
}

// runOracle publishes one random stream through pub and the reference
// and reports whether the two call logs are equal.
func runOracle(seed int64, pub func(*Bus, Event)) (same bool, got, want callLog) {
	rng := rand.New(rand.NewSource(seed))
	bus, ref, clk, g, w := oracleRig(rng)
	for range 200 {
		clk.t += float64(rng.Intn(3)) // repeated stamps, as inside one des event
		ev := randomEvent(rng)
		pub(bus, ev)
		ref.publish(ev)
	}
	return reflect.DeepEqual(*g, *w), *g, *w
}

// mutantPub runs every kind-filtered typed handler and recorder before
// the kind-filtered Subscribers, then the same split over the catch-all
// ones: the ordering mistake the oracle exists to catch.
func mutantPub(b *Bus, ev Event) {
	b.seq++
	rec := Record{Seq: b.seq, Time: b.clock.Now(), Event: ev}
	for _, list := range [][]entry{b.byKind[ev.Kind()], b.all} {
		for i := range list {
			if list[i].typed != nil || list[i].rec != nil {
				deliverAny(&list[i], &rec, ev)
			}
		}
		for i := range list {
			if list[i].typed == nil && list[i].rec == nil {
				deliverAny(&list[i], &rec, ev)
			}
		}
	}
}

// deliverAny hands ev to one subscription through deliver at its
// concrete type.
func deliverAny(e *entry, rec *Record, ev Event) {
	switch ev := ev.(type) {
	case HandoffAttempt:
		deliver(e, rec, ev)
	case HandoffOutcome:
		deliver(e, rec, ev)
	case BandwidthChange:
		deliver(e, rec, ev)
	case PoolClaim:
		deliver(e, rec, ev)
	default:
		panic(fmt.Sprintf("deliverAny: %T", ev))
	}
}

// TestPubMatchesReferenceDispatcher holds Pub to the Record-only
// dispatcher it replaced: over random mixes of typed handlers, Record
// subscribers and recorders, every subscriber is called in the same
// order with the same (seq, t, event), and every recorder writes the
// same lines. A dispatcher that runs typed handlers ahead of the
// subscription order must be told apart.
func TestPubMatchesReferenceDispatcher(t *testing.T) {
	diverged := 0
	for seed := int64(0); seed < 300; seed++ {
		if same, got, want := runOracle(seed, pubAny); !same {
			k := 0
			for k < min(len(got), len(want)) && reflect.DeepEqual(got[k], want[k]) {
				k++
			}
			t.Fatalf("seed %d: Pub's call log (%d calls) leaves the reference's (%d) at call %d:\n got %+v\nwant %+v",
				seed, len(got), len(want), k, got[k:min(k+1, len(got))], want[k:min(k+1, len(want))])
		}
		if same, _, _ := runOracle(seed, mutantPub); !same {
			diverged++
		}
	}
	if diverged == 0 {
		t.Fatal("the typed-first mutant matched the reference on every seed; the oracle cannot see ordering")
	}
}
