package testnet

import (
	"testing"

	"armnet/internal/des"
	"armnet/internal/netfaults"
	"armnet/internal/raceflag"
	"armnet/internal/topology"
	"armnet/internal/wire"
)

// BenchmarkLoopbackRoundTrip measures one full fabric round trip: encode
// a hop frame, deliver it to a node (decode + trace record + ack build),
// and verify the ack — the per-hop cost the loopback testnet adds on top
// of the simulated protocols.
func BenchmarkLoopbackRoundTrip(b *testing.B) {
	sim := des.New()
	n := NewNode("bench", sim)
	buf := make([]byte, 0, wire.MaxFrame)
	msg := wire.SignalSetup{Conn: "portable-17:2", Hop: 3, Bandwidth: 256e3}
	var am wire.Frame
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		frame, err := wire.AppendFrame(buf[:0], uint32(i+1), msg)
		if err != nil {
			b.Fatal(err)
		}
		ack, _, err := n.HandleFrame(frame)
		if err != nil {
			b.Fatal(err)
		}
		if err := wire.DecodeFrame(ack, &am); err != nil {
			b.Fatal(err)
		}
		if am.Type != wire.TAck || am.AckSeq != uint32(i+1) {
			b.Fatalf("bad ack %+v", am)
		}
		if n.buf.Len() > 1<<20 {
			n.buf.Reset() // cap trace growth; the recorder keeps writing
		}
	}
}

// BenchmarkNodeHandleFrame is the node's share of a hop alone: decode,
// trace record and ack build for an ADVERTISE, the most frequent frame.
func BenchmarkNodeHandleFrame(b *testing.B) {
	n := NewNode("bench", des.New())
	frame, err := wire.Encode(1<<20, wire.Advertise{Conn: "portable-17:2", Hop: 5, Round: 4, Stamp: 1.2345e6})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, err := n.HandleFrame(frame); err != nil {
			b.Fatal(err)
		}
		if n.buf.Len() > 1<<20 {
			n.buf.Reset()
		}
	}
}

// TestHandleFrameAllocBudget pins a warm node at zero allocations per
// frame: the frame decodes into the node's own Frame, the connection ID
// comes from the intern table, the WireDelivery reaches the recorder
// unboxed and its line is appended into the recorder's scratch, and the
// ack is appended into the node's buffer. The frame's seq is above 255
// on purpose: Go boxes smaller integers from a static table, which hid
// the ack's box from every probe that numbers its frames from 1.
func TestHandleFrameAllocBudget(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation counts differ under the race detector")
	}
	n := NewNode("budget", des.New())
	frame, err := wire.Encode(1<<20, wire.Advertise{Conn: "portable-17:2", Hop: 5, Round: 4, Stamp: 1.2345e6})
	if err != nil {
		t.Fatal(err)
	}
	handle := func() {
		if _, _, err := n.HandleFrame(frame); err != nil {
			t.Fatal(err)
		}
	}
	handle() // grow the recorder's scratch and the first trace chunk
	if got := testing.AllocsPerRun(1000, handle); got != 0 {
		t.Fatalf("HandleFrame allocates %v/op, want 0", got)
	}
}

// TestLoopbackDeliverAllocFree pins the controller's side of a hop at
// zero allocations too: a warm MaxminDeliver or SignalDeliver resolves
// the hop through the connection's route record, encodes the concrete
// message, has the agent handle it and verifies the ack.
func TestLoopbackDeliverAllocFree(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation counts differ under the race detector")
	}
	env, err := topology.BuildCampus()
	if err != nil {
		t.Fatal(err)
	}
	cluster := NewCluster(env)
	routing := NewRouting(cluster)
	nodes := make([]*Node, len(cluster.Names))
	sim := des.New()
	for i, name := range cluster.Names {
		nodes[i] = NewNode(name, sim)
	}
	tr := newLoopback(cluster, routing, nodes)
	route, err := env.Backbone.ShortestPath(env.Hosts[0], topology.AirNode("off-1"))
	if err != nil {
		t.Fatal(err)
	}
	routing.Register("portable-17:2", route, 256e3)
	hops := len(route.Links)
	round := func() {
		for hop := 0; hop < 2*hops; hop++ {
			tr.MaxminDeliver("portable-17:2", hop, false)
			tr.SignalDeliver("portable-17:2", hop)
		}
		tr.MaxminDeliver("portable-17:2", 0, true)
	}
	round() // grow the recorders' scratch and the first trace chunks
	if got := testing.AllocsPerRun(200, round); got != 0 {
		t.Fatalf("a warm round of %d deliveries allocates %v, want 0", 4*hops+1, got)
	}
	if len(tr.Errs()) != 0 || routing.Unrouted != 0 || tr.Sent() == 0 {
		t.Fatalf("errs %v, unrouted %d, sent %d", tr.Errs(), routing.Unrouted, tr.Sent())
	}
}

// BenchmarkLoopbackScenario runs the whole scripted campus scenario over
// the loopback fabric — the end-to-end number the bench trajectory
// tracks for the testnet area.
func BenchmarkLoopbackScenario(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := Run(Config{Mode: ModeLoopback})
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Violations) > 0 {
			b.Fatalf("violations: %v", res.Violations)
		}
	}
}

// BenchmarkNetfaultsVerdictEmpty is the zero-cost contract in numbers:
// the per-frame injector check on an empty plan — what every live frame
// pays when the chaos layer is armed but idle. It must stay allocation-
// free and a few nanoseconds, or wrapping the transport is no longer
// behaviour-preserving in spirit.
func BenchmarkNetfaultsVerdictEmpty(b *testing.B) {
	inj := netfaults.NewInjector(&netfaults.Plan{}, 1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if v := inj.Frame("signal", "ap-off-1"); v.Drop || v.Dup {
			b.Fatal("empty plan produced a fault")
		}
	}
}

// BenchmarkNetfaultsVerdict measures the per-frame verdict on an active
// plan with one rule per fault family — the injection hot path a soak
// run exercises on every delivered frame.
func BenchmarkNetfaultsVerdict(b *testing.B) {
	plan, err := netfaults.ParsePlanString(
		"drop signal 0.1\ndup maxmin 0.1\ndelay any 0.2 0.002\nreorder maxmin 0.15 0.004\n")
	if err != nil {
		b.Fatal(err)
	}
	inj := netfaults.NewInjector(plan, 1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		inj.Frame("maxmin", "ap-off-1")
	}
}

// BenchmarkFaultyLoopbackScenario is the end-to-end cost of the chaos
// layer at rest: the full scripted scenario with the fault layer wired
// in but the plan empty. Compare against BenchmarkLoopbackScenario —
// the gap is the price of the wrapping itself.
func BenchmarkFaultyLoopbackScenario(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := Run(Config{Mode: ModeLoopback, Faults: &netfaults.Plan{}})
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Violations) > 0 {
			b.Fatalf("violations: %v", res.Violations)
		}
	}
}
