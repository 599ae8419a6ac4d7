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

// wireDeliverySample is the record a testnet node publishes per frame —
// the one kind the live plane's always-on recorders see.
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

// BenchmarkRecordWireDelivery is the recorder's cost per live-plane
// frame on both sides of its clock-reading memo. The benchmark above
// and bench/'s eventbus.record_ns probe publish on a frozen clock and
// so time the all-hits path only; clock=moving never hits (every record
// formats its own timestamp, as under live-udp-paced), clock=frozen
// always does (as inside one des event of a loopback sweep).
func BenchmarkRecordWireDelivery(b *testing.B) {
	for _, c := range []struct {
		name string
		clk  Clock
	}{{"clock=frozen", &fakeClock{t: 12.5}}, {"clock=moving", &steppingClock{t: 12.5}}} {
		b.Run(c.name, func(b *testing.B) {
			bus := New(c.clk)
			rec := AttachRecorder(bus, io.Discard)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				Pub(bus, wireDeliverySample)
			}
			if rec.Err() != nil {
				b.Fatal(rec.Err())
			}
		})
	}
}
