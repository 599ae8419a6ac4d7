package live

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"armnet/internal/eventbus"
	"armnet/internal/obs"
	"armnet/internal/wire"
)

// fakeClock is a hand-advanced time source.
type fakeClock struct{ t float64 }

func (f *fakeClock) Now() float64 { return f.t }

// TestNilRecordersNoOp proves the disarmed layer is inert: every hook on
// a nil recorder returns without touching anything.
func TestNilRecordersNoOp(t *testing.T) {
	var c *Controller
	c.FrameTx("core", wire.Hello{Node: "core"}, 10, true)
	c.Verdict("drop")
	c.LeaseRenew("core", 0, 1, true)
	c.LeaseReclaim("conn-1")
	c.Resync("core")
	c.HandoffBreak("conn-1", "c1", "c2")
	c.Attach(nil)
	c.Finish(1)
	if c.snapshot() != nil || c.spans() != nil || c.SpansJSONL() != nil {
		t.Fatal("nil controller leaked state")
	}
	var n *NodeRecorder
	n.FrameRx(wire.Hello{}.WireType(), 10)
	n.Malformed()
	n.Oversized()
	n.Restart()
	if n.snapshot() != nil {
		t.Fatal("nil node recorder leaked state")
	}
}

// TestFrameCounters checks the tx/rx counter families and labels.
func TestFrameCounters(t *testing.T) {
	clk := &fakeClock{}
	c := NewController(clk.Now)
	c.FrameTx("east", wire.Hello{Node: "east"}, 12, true)
	c.FrameTx("east", wire.Hello{Node: "east"}, 12, false)
	c.FrameTx("west", wire.Update{Conn: "conn-1"}, 20, true)
	c.Verdict("drop")
	c.Verdict("drop")
	c.Resync("east")

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
	n.FrameRx(wire.Hello{}.WireType(), 12)
	n.FrameRx(wire.TUpdate, 20)
	n.Malformed()
	n.Oversized()
	n.Restart()
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

// TestSetupSpanCorrelation drives a 2-hop setup through its forward and
// commit passes and checks the round-trip span.
func TestSetupSpanCorrelation(t *testing.T) {
	clk := &fakeClock{}
	c := NewController(clk.Now)
	clk.t = 1.0
	c.FrameTx("core", wire.SignalSetup{Conn: "conn-1", Hop: 0}, 30, true)
	clk.t = 1.1
	c.FrameTx("east", wire.SignalSetup{Conn: "conn-1", Hop: 1}, 30, true)
	clk.t = 1.2
	c.FrameTx("east", wire.SignalCommit{Conn: "conn-1", Hop: 2}, 30, true)
	if got := c.spans(); len(got) != 0 {
		t.Fatalf("span closed early: %+v", got)
	}
	clk.t = 1.5
	c.FrameTx("core", wire.SignalCommit{Conn: "conn-1", Hop: 3}, 30, true)

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

// TestHandoffSpan opens a break-before-make span and closes it on the
// replacement setup's final commit.
func TestHandoffSpan(t *testing.T) {
	clk := &fakeClock{t: 2.0}
	c := NewController(clk.Now)
	c.HandoffBreak("conn-1", "cell-a", "cell-b")
	clk.t = 2.1
	c.FrameTx("core", wire.SignalSetup{Conn: "conn-1", Hop: 0}, 30, true)
	clk.t = 2.4
	c.FrameTx("core", wire.SignalCommit{Conn: "conn-1", Hop: 1}, 30, true)

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

// TestAbortClosesSpans checks that an abort frame closes both open span
// kinds with the carried reason.
func TestAbortClosesSpans(t *testing.T) {
	clk := &fakeClock{t: 3.0}
	c := NewController(clk.Now)
	c.HandoffBreak("conn-2", "cell-a", "cell-b")
	c.FrameTx("core", wire.SignalSetup{Conn: "conn-2", Hop: 0}, 30, true)
	clk.t = 3.2
	c.FrameTx("core", wire.SignalAbort{Conn: "conn-2", Hop: 0, Reason: "timeout"}, 30, true)

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

// TestLeaseSpanAndBus exercises the lease hooks and the bus-fed
// retransmit/give-up counters.
func TestLeaseSpanAndBus(t *testing.T) {
	clk := &fakeClock{}
	c := NewController(clk.Now)
	c.LeaseRenew("east", 4.0, 4.01, true)
	c.LeaseRenew("west", 5.0, 5.25, false)
	c.LeaseReclaim("conn-9")

	bus := eventbus.New(clk)
	c.Attach(bus)
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

// TestFinishDeterministic proves trailing open spans close in sorted
// order and the JSONL rendering is valid line-delimited JSON.
func TestFinishDeterministic(t *testing.T) {
	clk := &fakeClock{t: 1.0}
	c := NewController(clk.Now)
	c.FrameTx("core", wire.SignalSetup{Conn: "conn-b", Hop: 0}, 30, true)
	c.FrameTx("core", wire.SignalSetup{Conn: "conn-a", Hop: 0}, 30, true)
	c.Finish(9.0)
	c.Finish(9.0) // idempotent

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

// TestClusterSnapshotMerge merges controller and node views and checks
// per-node series survive with their labels.
func TestClusterSnapshotMerge(t *testing.T) {
	clk := &fakeClock{}
	c := NewController(clk.Now)
	c.FrameTx("east", wire.Hello{Node: "east"}, 12, true)
	ne := NewNodeRecorder("east")
	ne.FrameRx(wire.Hello{}.WireType(), 12)
	nw := NewNodeRecorder("west")
	nw.Malformed()

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

// spans returns a copy of the closed wire spans in closure order.
func (c *Controller) spans() []obs.Span {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]obs.Span(nil), c.sp.closed...)
}
