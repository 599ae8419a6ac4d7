package testnet

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"armnet/internal/eventbus"
	"armnet/internal/obs"
	"armnet/internal/raceflag"
	"armnet/internal/wire"
)

// clockedRecorder is an armed recorder stamping spans from now, as Run
// stamps one from the run's clock.
func clockedRecorder(now func() float64) *WireRecorder {
	c := NewWireRecorder()
	c.setClock(now)
	return c
}

// TestRecorderNilNoOp proves the disarmed layer is inert: every hook on
// a nil recorder returns without touching anything.
func TestRecorderNilNoOp(t *testing.T) {
	var c *WireRecorder
	c.frameTx("core", wire.Hello{Node: "core"}, 10, true)
	c.verdict("drop")
	c.leaseRenew("core", 0, 1, true)
	c.leaseReclaim("conn-1")
	c.resync("core")
	c.handoffBreak("conn-1", "c1", "c2")
	c.attach(nil)
	c.finish(1)
	if c.snapshot() != nil || c.spans() != nil || c.SpansJSONL() != nil {
		t.Fatal("nil controller leaked state")
	}
	var n *NodeRecorder
	n.frameRx(wire.Hello{}.WireType(), 10)
	n.malformed()
	n.oversized()
	n.restart()
	if n.snapshot() != nil {
		t.Fatal("nil node recorder leaked state")
	}
}

// TestRecorderFrameCounters checks the tx/rx counter families and labels.
func TestRecorderFrameCounters(t *testing.T) {
	c := NewWireRecorder()
	c.frameTx("east", wire.Hello{Node: "east"}, 12, true)
	c.frameTx("east", wire.Hello{Node: "east"}, 12, false)
	c.frameTx("west", wire.Update{Conn: "conn-1"}, 20, true)
	c.verdict("drop")
	c.verdict("drop")
	c.resync("east")

	s := c.snapshot()
	want := map[string]float64{
		"armnet_wire_frames_tx_total":      3,
		"armnet_wire_bytes_tx_total":       44,
		"armnet_wire_acks_total":           2,
		"armnet_wire_unacked_total":        1,
		"armnet_wire_fault_verdicts_total": 2,
		"armnet_wire_resyncs_total":        1,
	}
	for name, v := range want {
		if got := s.CounterTotal(name); got != v {
			t.Errorf("%s = %v, want %v", name, got, v)
		}
	}
	prom := string(s.Prometheus())
	for _, line := range []string{
		`armnet_wire_frames_tx_total{kind="hello",node="east"} 2`,
		`armnet_wire_frames_tx_total{kind="update",node="west"} 1`,
		`armnet_wire_fault_verdicts_total{family="drop"} 2`,
	} {
		if !strings.Contains(prom, line) {
			t.Errorf("prometheus output missing %q:\n%s", line, prom)
		}
	}

	n := NewNodeRecorder("east")
	n.frameRx(wire.Hello{}.WireType(), 12)
	n.frameRx(wire.TUpdate, 20)
	n.malformed()
	n.oversized()
	n.restart()
	ns := n.snapshot()
	for name, v := range map[string]float64{
		"armnet_wire_frames_rx_total":     2,
		"armnet_wire_bytes_rx_total":      32,
		"armnet_wire_malformed_total":     1,
		"armnet_wire_oversized_total":     1,
		"armnet_wire_node_restarts_total": 1,
	} {
		if got := ns.CounterTotal(name); got != v {
			t.Errorf("%s = %v, want %v", name, got, v)
		}
	}
}

// TestRecorderSetupSpan drives a 2-hop setup through its forward and
// commit passes and checks the round-trip span.
func TestRecorderSetupSpan(t *testing.T) {
	clk := &manualClock{}
	c := clockedRecorder(clk.Now)
	clk.t = 1.0
	c.frameTx("core", wire.SignalSetup{Conn: "conn-1", Hop: 0}, 30, true)
	clk.t = 1.1
	c.frameTx("east", wire.SignalSetup{Conn: "conn-1", Hop: 1}, 30, true)
	clk.t = 1.2
	c.frameTx("east", wire.SignalCommit{Conn: "conn-1", Hop: 2}, 30, true)
	if got := c.spans(); len(got) != 0 {
		t.Fatalf("span closed early: %+v", got)
	}
	clk.t = 1.5
	c.frameTx("core", wire.SignalCommit{Conn: "conn-1", Hop: 3}, 30, true)

	spans := c.spans()
	if len(spans) != 1 {
		t.Fatalf("got %d spans, want 1", len(spans))
	}
	s := spans[0]
	if s.Name != "wire-setup" || s.Status != "committed" || s.Conn != "conn-1" {
		t.Fatalf("bad span %+v", s)
	}
	if s.Start != 1.0 || s.End != 1.5 {
		t.Fatalf("span [%v,%v], want [1,1.5]", s.Start, s.End)
	}
	if s.Attrs == nil || s.Attrs.Latency != 0.5 {
		t.Fatalf("bad latency attrs %+v", s.Attrs)
	}
	if got := c.snapshot().CounterTotal("armnet_wire_setup_rtt_seconds"); got != 0 {
		// RTTs live in the histogram, not a counter.
		t.Fatalf("unexpected counter %v", got)
	}
	hists := c.snapshot().Histograms
	k := -1
	for i := range hists {
		if hists[i].Name == "armnet_wire_setup_rtt_seconds" {
			k = i
		}
	}
	if k < 0 || hists[k].Count != 1 || hists[k].Sum != 0.5 {
		t.Fatalf("setup rtt histograms %+v, want one with count 1 and sum 0.5", hists)
	}
}

// TestRecorderHandoffSpan opens a break-before-make span and closes it on the
// replacement setup's final commit.
func TestRecorderHandoffSpan(t *testing.T) {
	clk := &manualClock{t: 2.0}
	c := clockedRecorder(clk.Now)
	c.handoffBreak("conn-1", "cell-a", "cell-b")
	clk.t = 2.1
	c.frameTx("core", wire.SignalSetup{Conn: "conn-1", Hop: 0}, 30, true)
	clk.t = 2.4
	c.frameTx("core", wire.SignalCommit{Conn: "conn-1", Hop: 1}, 30, true)

	spans := c.spans()
	if len(spans) != 2 {
		t.Fatalf("got %d spans, want setup+handoff", len(spans))
	}
	var ho *obs.Span
	for i := range spans {
		if spans[i].Name == "wire-handoff" {
			ho = &spans[i]
		}
	}
	if ho == nil || ho.Status != "ok" || ho.Start != 2.0 || ho.End != 2.4 {
		t.Fatalf("bad handoff span %+v", ho)
	}
	if ho.Attrs == nil || ho.Attrs.From != "cell-a" || ho.Attrs.To != "cell-b" {
		t.Fatalf("bad handoff attrs %+v", ho.Attrs)
	}
}

// TestRecorderAbortClosesSpans checks that an abort frame closes both open span
// kinds with the carried reason.
func TestRecorderAbortClosesSpans(t *testing.T) {
	clk := &manualClock{t: 3.0}
	c := clockedRecorder(clk.Now)
	c.handoffBreak("conn-2", "cell-a", "cell-b")
	c.frameTx("core", wire.SignalSetup{Conn: "conn-2", Hop: 0}, 30, true)
	clk.t = 3.2
	c.frameTx("core", wire.SignalAbort{Conn: "conn-2", Hop: 0, Reason: "timeout"}, 30, true)

	spans := c.spans()
	if len(spans) != 2 {
		t.Fatalf("got %d spans, want 2", len(spans))
	}
	for _, s := range spans {
		switch s.Name {
		case "wire-setup":
			if s.Status != "aborted" || s.Attrs.Reason != "timeout" {
				t.Fatalf("bad setup span %+v", s)
			}
		case "wire-handoff":
			if s.Status != "dropped" || s.Attrs.Reason != "timeout" {
				t.Fatalf("bad handoff span %+v", s)
			}
		default:
			t.Fatalf("unexpected span %+v", s)
		}
	}
}

// TestRecorderLeaseSpanAndBus exercises the lease hooks and the bus-fed
// retransmit/give-up counters.
func TestRecorderLeaseSpanAndBus(t *testing.T) {
	clk := &manualClock{}
	c := clockedRecorder(clk.Now)
	c.leaseRenew("east", 4.0, 4.01, true)
	c.leaseRenew("west", 5.0, 5.25, false)
	c.leaseReclaim("conn-9")

	bus := eventbus.New(clk)
	c.attach(bus)
	eventbus.Pub(bus, eventbus.ControlRetransmit{Proto: "signal", Conn: "conn-1", Hop: 0, Attempt: 1})
	eventbus.Pub(bus, eventbus.ControlRetransmit{Proto: "maxmin", Conn: "conn-2", Hop: 1, Attempt: 2})
	eventbus.Pub(bus, eventbus.SignalAbort{Conn: "conn-3", Reason: "timeout", Hop: 1})

	s := c.snapshot()
	for name, v := range map[string]float64{
		"armnet_wire_lease_renews_total":   2,
		"armnet_wire_lease_misses_total":   1,
		"armnet_wire_lease_reclaims_total": 1,
		"armnet_wire_retransmits_total":    2,
		"armnet_wire_giveups_total":        1,
	} {
		if got := s.CounterTotal(name); got != v {
			t.Errorf("%s = %v, want %v", name, got, v)
		}
	}
	spans := c.spans()
	if len(spans) != 2 {
		t.Fatalf("got %d lease spans, want 2", len(spans))
	}
	if spans[0].Status != "ok" || spans[1].Status != "lost" {
		t.Fatalf("lease statuses %q/%q", spans[0].Status, spans[1].Status)
	}
}

// TestRecorderFinishDeterministic proves trailing open spans close in sorted
// order and the JSONL rendering is valid line-delimited JSON.
func TestRecorderFinishDeterministic(t *testing.T) {
	clk := &manualClock{t: 1.0}
	c := clockedRecorder(clk.Now)
	c.frameTx("core", wire.SignalSetup{Conn: "conn-b", Hop: 0}, 30, true)
	c.frameTx("core", wire.SignalSetup{Conn: "conn-a", Hop: 0}, 30, true)
	c.finish(9.0)
	c.finish(9.0) // idempotent

	spans := c.spans()
	if len(spans) != 2 {
		t.Fatalf("got %d spans, want 2", len(spans))
	}
	if spans[0].Conn != "conn-a" || spans[1].Conn != "conn-b" {
		t.Fatalf("finish order %q,%q not sorted", spans[0].Conn, spans[1].Conn)
	}
	for _, s := range spans {
		if s.Status != "open" || s.End != 9.0 {
			t.Fatalf("bad trailing span %+v", s)
		}
	}
	for _, line := range bytes.Split(bytes.TrimSuffix(c.SpansJSONL(), []byte("\n")), []byte("\n")) {
		var s obs.Span
		if err := json.Unmarshal(line, &s); err != nil {
			t.Fatalf("bad span line %q: %v", line, err)
		}
	}
}

// TestRecorderClusterSnapshotMerge merges controller and node views and checks
// per-node series survive with their labels.
func TestRecorderClusterSnapshotMerge(t *testing.T) {
	c := NewWireRecorder()
	c.frameTx("east", wire.Hello{Node: "east"}, 12, true)
	ne := NewNodeRecorder("east")
	ne.frameRx(wire.Hello{}.WireType(), 12)
	nw := NewNodeRecorder("west")
	nw.malformed()

	merged, err := ClusterSnapshot(c, []*NodeRecorder{ne, nw})
	if err != nil {
		t.Fatal(err)
	}
	if merged.Runs != 1 {
		t.Fatalf("merged runs = %d, want 1", merged.Runs)
	}
	prom := string(merged.Prometheus())
	for _, line := range []string{
		`armnet_wire_frames_tx_total{kind="hello",node="east"} 1`,
		`armnet_wire_frames_rx_total{kind="hello",node="east"} 1`,
		`armnet_wire_malformed_total{node="west"} 1`,
	} {
		if !strings.Contains(prom, line) {
			t.Errorf("cluster view missing %q:\n%s", line, prom)
		}
	}
	// Nil members are skipped, not fatal.
	if _, err := ClusterSnapshot(nil, []*NodeRecorder{nil}); err != nil {
		t.Fatal(err)
	}
}

// The hot-path contract: a disarmed (nil) recorder costs one nil check
// per hook and never allocates, so live runs without -telemetry pay
// nothing for the instrumentation seams.

func BenchmarkLiveFrameTxDisabled(b *testing.B) {
	var c *WireRecorder
	m := wire.Message(wire.Update{Conn: "conn-1", Hop: 2})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.frameTx("east", m, 24, true)
	}
}

func BenchmarkLiveFrameTxEnabled(b *testing.B) {
	c := NewWireRecorder()
	m := wire.Message(wire.Update{Conn: "conn-1", Hop: 2})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.frameTx("east", m, 24, true)
	}
}

func BenchmarkLiveFrameRxEnabled(b *testing.B) {
	n := NewNodeRecorder("east")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		n.frameRx(wire.TUpdate, 24)
	}
}

func BenchmarkLiveSnapshot(b *testing.B) {
	c := NewWireRecorder()
	for _, agent := range []string{"core", "east", "west"} {
		c.frameTx(agent, wire.Message(wire.Hello{Node: agent}), 12, true)
		c.leaseRenew(agent, 0, 0.001, true)
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
	var c *WireRecorder
	var n *NodeRecorder
	m := wire.Message(wire.Update{Conn: "conn-1", Hop: 2})
	got := testing.AllocsPerRun(1000, func() {
		c.frameTx("east", m, 24, true)
		c.verdict("drop")
		c.leaseRenew("east", 0, 1, true)
		c.handoffBreak("conn-1", "a", "b")
		c.leaseReclaim("conn-1")
		c.resync("east")
		c.finish(1)
		n.frameRx(wire.TUpdate, 24)
		n.malformed()
		n.oversized()
		n.restart()
	})
	if got != 0 {
		t.Fatalf("disabled live hooks allocate %v per run, want 0", got)
	}
}

// spans returns a copy of the closed wire spans in closure order.
func (c *WireRecorder) spans() []obs.Span {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]obs.Span(nil), c.sp.closed...)
}
