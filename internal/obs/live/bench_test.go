package live

import (
	"testing"

	"armnet/internal/raceflag"
	"armnet/internal/wire"
)

// The hot-path contract: a disarmed (nil) recorder costs one nil check
// per hook and never allocates, so live runs without -telemetry pay
// nothing for the instrumentation seams.

func BenchmarkLiveFrameTxDisabled(b *testing.B) {
	var c *Controller
	m := wire.Message(wire.Update{Conn: "conn-1", Hop: 2})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.FrameTx("east", m, 24, true)
	}
}

func BenchmarkLiveFrameTxEnabled(b *testing.B) {
	clk := &fakeClock{}
	c := NewController(clk.Now)
	m := wire.Message(wire.Update{Conn: "conn-1", Hop: 2})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.FrameTx("east", m, 24, true)
	}
}

func BenchmarkLiveFrameRxEnabled(b *testing.B) {
	n := NewNodeRecorder("east")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		n.FrameRx(wire.TUpdate, 24)
	}
}

func BenchmarkLiveSnapshot(b *testing.B) {
	clk := &fakeClock{}
	c := NewController(clk.Now)
	for _, agent := range []string{"core", "east", "west"} {
		c.FrameTx(agent, wire.Message(wire.Hello{Node: agent}), 12, true)
		c.LeaseRenew(agent, 0, 0.001, true)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = c.snapshot()
	}
}

// TestDisabledPathZeroAlloc pins the nil-recorder hooks at zero
// allocations (the race detector's instrumentation breaks the count, so
// the pin is skipped there — the benchmark above still records it).
func TestDisabledPathZeroAlloc(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation counts are unreliable under -race")
	}
	var c *Controller
	var n *NodeRecorder
	m := wire.Message(wire.Update{Conn: "conn-1", Hop: 2})
	got := testing.AllocsPerRun(1000, func() {
		c.FrameTx("east", m, 24, true)
		c.Verdict("drop")
		c.LeaseRenew("east", 0, 1, true)
		c.HandoffBreak("conn-1", "a", "b")
		n.FrameRx(wire.TUpdate, 24)
		n.Malformed()
	})
	if got != 0 {
		t.Fatalf("disabled live hooks allocate %v per run, want 0", got)
	}
}
