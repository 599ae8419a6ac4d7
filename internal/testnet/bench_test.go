package testnet

import (
	"bytes"
	"runtime"
	"strings"
	"testing"
	"unsafe"

	"armnet/internal/des"
	"armnet/internal/faults"
	"armnet/internal/raceflag"
	"armnet/internal/topology"
	"armnet/internal/wire"
)

// BenchmarkLoopbackRoundTrip measures one full fabric round trip: encode
// a hop frame, deliver it to a node (decode + frame log + ack build),
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
		if i%4096 == 4095 {
			n.log = frameLog{} // cap the log's growth
		}
	}
}

// BenchmarkNodeHandleFrame is the node's share of a hop alone: decode,
// frame log and ack build for an ADVERTISE, the most frequent frame.
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
		if i%4096 == 4095 {
			n.log = frameLog{}
		}
	}
}

// loggedNode returns a node that has logged the given number of
// ADVERTISE frames, the clock moving every seventh, as a sweep's hops
// share an instant.
func loggedNode(tb testing.TB, frames int) *Node {
	clk := &manualClock{}
	n := NewNode("ap-off-1", clk)
	for i := 0; i < frames; i++ {
		if i%7 == 0 {
			clk.t += 0.0137
		}
		frame, err := wire.Encode(uint32(i+1), wire.Advertise{Conn: "portable-17:2", Hop: uint16(i % 9), Round: 4})
		if err != nil {
			tb.Fatal(err)
		}
		if _, _, err := n.HandleFrame(frame); err != nil {
			tb.Fatal(err)
		}
	}
	return n
}

// BenchmarkNodeTrace is the node's trace cost at the end of a run: a
// 100k-frame log sized and rendered into one buffer.
func BenchmarkNodeTrace(b *testing.B) {
	n := loggedNode(b, 100_000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := n.Trace(); err != nil {
			b.Fatal(err)
		}
	}
}

// TestNodeTraceSizedOnce pins Trace's one allocation: its output, sized
// by the first pass to the byte (at most 5 % slack) and never regrown.
func TestNodeTraceSizedOnce(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation counts differ under the race detector")
	}
	n := loggedNode(t, 5000)
	var out []byte
	allocs := testing.AllocsPerRun(20, func() {
		var err error
		if out, err = n.Trace(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 1 {
		t.Fatalf("Trace allocates %v times, want once", allocs)
	}
	if lines := bytes.Count(out, []byte("\n")); lines != 5000 || cap(out) > len(out)*105/100 {
		t.Fatalf("Trace rendered %d lines into %d of %d bytes", lines, len(out), cap(out))
	}
}

// TestNodeLogNeverCopiesHistory is TestTraceBufferNeverCopiesHistory for
// the frame log: logging 8 MiB of records allocates barely more than
// 8 MiB, so a UDP node's goroutine never stalls copying what it logged
// before. A doubling slice allocates at least twice that.
func TestNodeLogNeverCopiesHistory(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("race detector adds bookkeeping allocations")
	}
	const total = 8 << 20
	rec := frameRecord{t: 1.5, conn: "portable-17:2", typ: wire.TAdvertise, hop: 3, size: 31}
	var l frameLog
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for l.n*int(unsafe.Sizeof(rec)) < total {
		l.append(rec)
	}
	runtime.ReadMemStats(&after)
	if grew := after.TotalAlloc - before.TotalAlloc; grew >= total*5/4 {
		t.Fatalf("logging %d records allocated %d bytes, want under %d", l.n, grew, total*5/4)
	}
	held := 0
	for i, c := range l.chunks {
		if cap(c) > maxLogChunk || i < len(l.chunks)-1 && len(c) != cap(c) {
			t.Fatalf("chunk %d holds %d of %d records, cap is %d", i, len(c), cap(c), maxLogChunk)
		}
		held += len(c)
	}
	if held != l.n || unsafe.Sizeof(rec) > 32 {
		t.Fatalf("chunks hold %d of %d records of %d bytes", held, l.n, unsafe.Sizeof(rec))
	}
}

// TestHandleFrameAllocBudget pins a warm node at zero allocations per
// frame: the frame decodes into the node's own Frame, the connection ID
// comes from the intern table, its record fills a slot of the frame
// log's last chunk, and the ack is appended into the node's buffer. The
// frame's seq is above 255 on purpose: Go boxes smaller integers from a
// static table, which hid the ack's box from every probe that numbers its
// frames from 1.
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
	handle() // make the log's first chunk
	if got := testing.AllocsPerRun(1000, handle); got != 0 {
		t.Fatalf("HandleFrame allocates %v/op, want 0", got)
	}
}

// TestLoopbackDeliverAllocFree pins the controller's side of a hop at
// zero allocations too: a warm MaxminDeliver or SignalDeliver finds the
// agent owning the link the hook names, encodes the concrete message,
// has the agent handle it and verifies the ack. The reference registry
// supplies each hop's link.
func TestLoopbackDeliverAllocFree(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation counts differ under the race detector")
	}
	env, err := topology.BuildCampus()
	if err != nil {
		t.Fatal(err)
	}
	cluster := NewCluster(env)
	nodes := make([]*Node, len(cluster.Names))
	sim := des.New()
	for i, name := range cluster.Names {
		nodes[i] = NewNode(name, sim)
	}
	route, err := env.Backbone.ShortestPath(env.Hosts[0], topology.AirNode("off-1"))
	if err != nil {
		t.Fatal(err)
	}
	const conn = "portable-17:2"
	tr := newLoopback(cluster, connTable{conn: {route: route, reserve: 256e3}}, nodes)
	ref := newRefRoute(route, false)
	hops := len(route.Links)
	round := func() {
		for hop := 0; hop < 2*hops; hop++ {
			link, _ := ref.maxminHop(hop, false)
			tr.MaxminDeliver(conn, hop, string(link), false)
			link, commit, _ := ref.signalHop(hop)
			tr.SignalDeliver(conn, hop, string(link), commit)
		}
		link, _ := ref.maxminHop(0, true)
		tr.MaxminDeliver(conn, 0, string(link), true)
	}
	round() // make the logs' first chunks
	if got := testing.AllocsPerRun(200, round); got != 0 {
		t.Fatalf("a warm round of %d deliveries allocates %v, want 0", 4*hops+1, got)
	}
	if len(tr.Errs()) != 0 || tr.Sent() == 0 {
		t.Fatalf("errs %v, sent %d", tr.Errs(), tr.Sent())
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
	walk := faults.NewWalker(&faults.Plan{}, 1^wireSalt)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if v := walk.Walk("signal", "ap-off-1", nil); v.Drop || v.Dup {
			b.Fatal("empty plan produced a fault")
		}
	}
}

// BenchmarkNetfaultsVerdict measures the per-frame verdict on an active
// plan with one rule per fault family — the injection hot path a soak
// run exercises on every delivered frame.
func BenchmarkNetfaultsVerdict(b *testing.B) {
	plan, err := faults.ParseWirePlan(strings.NewReader(
		"drop signal 0.1\ndup maxmin 0.1\ndelay any 0.2 0.002\nreorder maxmin 0.15 0.004\n"))
	if err != nil {
		b.Fatal(err)
	}
	walk := faults.NewWalker(plan, 1^wireSalt)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		walk.Walk("maxmin", "ap-off-1", nil)
	}
}

// BenchmarkFaultyLoopbackScenario is the end-to-end cost of the chaos
// layer at rest: the full scripted scenario with the fault layer wired
// in but the plan empty. Compare against BenchmarkLoopbackScenario —
// the gap is the price of the wrapping itself.
func BenchmarkFaultyLoopbackScenario(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := Run(Config{Mode: ModeLoopback, Faults: &faults.Plan{}})
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Violations) > 0 {
			b.Fatalf("violations: %v", res.Violations)
		}
	}
}
