package obs

import (
	"testing"

	"armnet/internal/eventbus"
)

// BenchmarkObserverHotPath measures the per-event cost of the observer's
// catch-all subscriber over a representative event mix — the marginal
// price of running a simulation with obs enabled.
func BenchmarkObserverHotPath(b *testing.B) {
	clk := &fakeClock{}
	bus := eventbus.New(clk)
	New(bus, Sources{
		CellUtilization: func() []CellUtil {
			return []CellUtil{{Cell: "cellA", Util: 0.3}, {Cell: "cellB", Util: 0.7}}
		},
	}, Options{})
	publish := func() {
		eventbus.Pub(bus, eventbus.ConnectionRequested{Portable: "p0"})
		eventbus.Pub(bus, eventbus.SignalHold{Conn: "c0", Link: "l0"})
		eventbus.Pub(bus, eventbus.SignalCommit{Conn: "c0", Latency: 0.01})
		eventbus.Pub(bus, eventbus.ConnectionAdmitted{Conn: "c0", Portable: "p0", Bandwidth: 2})
		eventbus.Pub(bus, eventbus.AdaptationRound{Conn: "c0", Round: 1, Stamp: 1.5})
		eventbus.Pub(bus, eventbus.BandwidthChange{Conn: "c0", Bandwidth: 1.5})
		eventbus.Pub(bus, eventbus.MaxminConverged{Sessions: 1, Messages: 8})
		eventbus.Pub(bus, eventbus.HandoffAttempt{Conn: "c0", Portable: "p0", From: "cellA", To: "cellB", Predicted: true})
		eventbus.Pub(bus, eventbus.HandoffLatency{Conn: "c0", Portable: "p0", Predicted: true, Latency: 0.004})
		eventbus.Pub(bus, eventbus.HandoffOutcome{Conn: "c0", Portable: "p0"})
		eventbus.Pub(bus, eventbus.ConnectionClosed{Conn: "c0", Portable: "p0"})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		clk.now = float64(i)
		publish()
	}
}

// BenchmarkSnapshotRender measures a full Prometheus render of a
// realistically sized registry — the per-scrape cost of the live
// telemetry endpoint.
func BenchmarkSnapshotRender(b *testing.B) {
	clk := &fakeClock{}
	bus := eventbus.New(clk)
	o := New(bus, Sources{}, Options{})
	for i := 0; i < 200; i++ {
		clk.now = float64(i)
		driveLifecycle(clk, bus)
	}
	o.Finish(1000)
	snap := o.Snapshot()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if out := snap.Prometheus(); len(out) == 0 {
			b.Fatal("empty render")
		}
	}
}
