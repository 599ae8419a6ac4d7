package eventbus

import (
	"io"
	"testing"
)

// The benchmarks track the cost the bus adds to every control-plane
// decision. `make bench` runs them so later PRs can watch publish
// overhead as the subscriber population grows.

func BenchmarkPublishNoSubscribers(b *testing.B) {
	bus := New(&fakeClock{})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Pub(bus, BandwidthChange{Conn: "conn-1", Bandwidth: 64000})
	}
}

func BenchmarkPublishOneKindSubscriber(b *testing.B) {
	bus := New(&fakeClock{})
	var n int
	bus.Subscribe(func(Record) { n++ }, kindBandwidthChange)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Pub(bus, BandwidthChange{Conn: "conn-1", Bandwidth: 64000})
	}
	_ = n
}

// BenchmarkPublishTypedHandler is the route core.Metrics and the
// manager's watchers take: a handler registered with On, called with the
// concrete event.
func BenchmarkPublishTypedHandler(b *testing.B) {
	bus := New(&fakeClock{})
	var n int
	On(bus, func(BandwidthChange) { n++ })
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Pub(bus, BandwidthChange{Conn: "conn-1", Bandwidth: 64000})
	}
	_ = n
}

func BenchmarkPublishFourSubscribers(b *testing.B) {
	bus := New(&fakeClock{})
	var n int
	bus.Subscribe(func(Record) { n++ }, kindBandwidthChange)
	bus.Subscribe(func(Record) { n++ }, kindBandwidthChange, kindConnectionAdmitted)
	bus.Subscribe(func(Record) { n++ })
	bus.Subscribe(func(Record) { n++ })
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Pub(bus, BandwidthChange{Conn: "conn-1", Bandwidth: 64000})
	}
	_ = n
}

func BenchmarkPublishWithJSONLRecorder(b *testing.B) {
	bus := New(&fakeClock{})
	AttachRecorder(bus, io.Discard)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Pub(bus, BandwidthChange{Conn: "conn-1", Bandwidth: 64000})
	}
}

// wireDeliverySample is a testnet node's trace line for one frame, the
// widest of the hot kinds: four strings and two ints.
var wireDeliverySample = WireDelivery{Node: "ap-off-1", Proto: "maxmin", Type: "advertise", Conn: "p07:3", Hop: 2, Bytes: 31}

// steppingClock advances by an irregular step on every reading, so no
// two records share a timestamp: the wall-clock case.
type steppingClock struct {
	t float64
	n int
}

func (c *steppingClock) Now() float64 {
	c.n++
	c.t += 0.0001 * float64(1+c.n%7)
	return c.t
}

// BenchmarkRecordAdaptationRound is the recorder's cost per line of the
// kind a live run's always-on recorder, the controller's, writes most:
// an ADVERTISE round stamping a connection's rate (a node's frames are
// rendered at Node.Trace, BenchmarkNodeTrace). A run's rounds repeat a
// few stamps — 142 distinct over the 41,888 rounds of live-loopback-
// churn's first script — so the stamps and connections cycle through
// small sets. clock=frozen always hits the clock-reading memo (as inside
// one des event of a loopback sweep), clock=moving never does (as under
// live-udp-paced); bench/'s eventbus.record_ns probe is the frozen case
// with one stamp.
func BenchmarkRecordAdaptationRound(b *testing.B) {
	stamps := []float64{3600.25, 3600.3125, 3601.0625, 3602.5, 3602.75}
	conns := []string{"p07:3", "p11:1", "p02:4"}
	for _, c := range []struct {
		name string
		clk  Clock
	}{{"clock=frozen", &fakeClock{t: 3603.5}}, {"clock=moving", &steppingClock{t: 3603.5}}} {
		b.Run(c.name, func(b *testing.B) {
			bus := New(c.clk)
			rec := AttachRecorder(bus, io.Discard)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				Pub(bus, AdaptationRound{Conn: conns[i%len(conns)], Round: 1 + i%9, Stamp: stamps[i%len(stamps)]})
			}
			if rec.Err() != nil {
				b.Fatal(rec.Err())
			}
		})
	}
}
