package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"armnet/internal/eventbus"
	"armnet/internal/maxmin"
)

type fakeClock struct{ now float64 }

func (c *fakeClock) Now() float64 { return c.now }

// driveLifecycle publishes a small but representative event sequence:
// one signaled setup that commits, one that aborts, a predicted and an
// unpredicted handoff (the latter dropped), rate adaptation, and a
// maxmin burst.
func driveLifecycle(clk *fakeClock, bus *eventbus.Bus) {
	clk.now = 1
	eventbus.Pub(bus, eventbus.ConnectionRequested{Portable: "p0"})
	eventbus.Pub(bus, eventbus.SignalHold{Conn: "c0", Link: "l0"})
	eventbus.Pub(bus, eventbus.SignalHold{Conn: "c0", Link: "l1"})
	clk.now = 1.02
	eventbus.Pub(bus, eventbus.SignalCommit{Conn: "c0", Latency: 0.02})
	eventbus.Pub(bus, eventbus.ConnectionAdmitted{Conn: "c0", Portable: "p0", Bandwidth: 2})

	clk.now = 2
	eventbus.Pub(bus, eventbus.ConnectionRequested{Portable: "p1"})
	eventbus.Pub(bus, eventbus.SignalHold{Conn: "c1", Link: "l0"})
	clk.now = 2.01
	eventbus.Pub(bus, eventbus.SignalAbort{Conn: "c1", Reason: "insufficient", Hop: 1})
	eventbus.Pub(bus, eventbus.ConnectionBlocked{Portable: "p1", Reason: "insufficient"})

	clk.now = 3
	eventbus.Pub(bus, eventbus.AdaptationRound{Conn: "c0", Round: 1, Stamp: 1.5})
	eventbus.Pub(bus, eventbus.AdaptationRound{Conn: "c0", Round: 2, Stamp: 1.75})
	eventbus.Pub(bus, eventbus.BandwidthChange{Conn: "c0", Bandwidth: 1.75})
	eventbus.Pub(bus, eventbus.MaxminConverged{Sessions: 1, Messages: 12})

	clk.now = 4
	eventbus.Pub(bus, eventbus.HandoffAttempt{Conn: "c0", Portable: "p0", From: "cellA", To: "cellB", Predicted: true})
	eventbus.Pub(bus, eventbus.HandoffLatency{Conn: "c0", Portable: "p0", Predicted: true, Latency: 0.004})
	eventbus.Pub(bus, eventbus.HandoffOutcome{Conn: "c0", Portable: "p0"})

	clk.now = 5
	eventbus.Pub(bus, eventbus.HandoffAttempt{Conn: "c0", Portable: "p0", From: "cellB", To: "cellC", Predicted: false})
	eventbus.Pub(bus, eventbus.HandoffLatency{Conn: "c0", Portable: "p0", Predicted: false, Latency: 0.04})
	eventbus.Pub(bus, eventbus.HandoffOutcome{Conn: "c0", Portable: "p0", Dropped: true})
}

func TestObserverLifecycle(t *testing.T) {
	clk := &fakeClock{}
	bus := eventbus.New(clk)
	var spans bytes.Buffer
	utils := []CellUtil{{Cell: "cellA", Util: 0.25}}
	o := New(bus, Sources{
		CellUtilization: func() []CellUtil { return utils },
		Bottlenecks:     func() []maxmin.LinkBottleneck { return []maxmin.LinkBottleneck{{Link: "l0", Size: 2}} },
	}, Options{Spans: &spans})

	driveLifecycle(clk, bus)
	o.RecordPrediction("portable", "office", true)
	o.RecordPrediction("cell", "corridor", false)
	o.Finish(10)
	if err := o.SpanErr(); err != nil {
		t.Fatalf("SpanErr: %v", err)
	}
	snap := o.Snapshot()

	wantCounters := map[string]float64{
		"armnet_connection_requests_total":                              2,
		"armnet_connections_admitted_total":                             1,
		`armnet_connections_blocked_total{reason="insufficient"}`:       1,
		"armnet_handoff_attempts_total":                                 2,
		"armnet_handoffs_predicted_total":                               1,
		"armnet_handoffs_dropped_total":                                 1,
		"armnet_adaptation_updates_total":                               1,
		"armnet_maxmin_convergences_total":                              1,
		`armnet_predictions_total{class="office",level="portable"}`:     1,
		`armnet_predictions_total{class="corridor",level="cell"}`:       1,
		`armnet_prediction_hits_total{class="office",level="portable"}`: 1,
	}
	got := map[string]float64{}
	for _, c := range snap.Counters {
		got[seriesKey(c.Name, c.Labels)] = c.Value
	}
	for k, want := range wantCounters {
		if got[k] != want {
			t.Errorf("counter %s = %v, want %v", k, got[k], want)
		}
	}
	if v, ok := got[`armnet_prediction_hits_total{class="corridor",level="cell"}`]; ok {
		t.Errorf("missed prediction recorded a hit (%v)", v)
	}

	hists := map[string]histSeries{}
	for _, h := range snap.Histograms {
		hists[seriesKey(h.Name, h.Labels)] = h
	}
	if h := hists["armnet_setup_latency_seconds"]; h.Count != 1 || h.Sum != 0.02 {
		t.Errorf("setup latency hist = count %d sum %v", h.Count, h.Sum)
	}
	if h := hists[`armnet_handoff_interruption_seconds{predicted="true"}`]; h.Count != 1 || h.Sum != 0.004 {
		t.Errorf("predicted interruption hist = count %d sum %v", h.Count, h.Sum)
	}
	if h := hists[`armnet_handoff_interruption_seconds{predicted="false"}`]; h.Count != 1 || h.Sum != 0.04 {
		t.Errorf("unpredicted interruption hist = count %d sum %v", h.Count, h.Sum)
	}
	if h := hists["armnet_maxmin_rounds_to_converge"]; h.Count != 1 || h.Sum != 2 {
		t.Errorf("rounds hist = count %d sum %v (want one burst of 2 rounds)", h.Count, h.Sum)
	}
	if h := hists["armnet_maxmin_control_packets"]; h.Count != 1 || h.Sum != 12 {
		t.Errorf("packets hist = count %d sum %v", h.Count, h.Sum)
	}

	gauges := map[string]float64{}
	for _, g := range snap.Gauges {
		gauges[seriesKey(g.Name, g.Labels)] = g.Value
	}
	if gauges[`armnet_maxmin_bottleneck_set_size{link="l0"}`] != 2 {
		t.Errorf("bottleneck gauge = %v", gauges[`armnet_maxmin_bottleneck_set_size{link="l0"}`])
	}
	// Utilization was a constant 0.25 from t=0 on, so the mean is exact.
	if gauges[`armnet_cell_utilization_mean{cell="cellA"}`] != 0.25 {
		t.Errorf("utilization mean = %v", gauges[`armnet_cell_utilization_mean{cell="cellA"}`])
	}

	// Span export: every line parses; c0's root is dropped, c1's aborted.
	status := map[string]string{}
	for _, line := range strings.Split(strings.TrimSpace(spans.String()), "\n") {
		var s Span
		if err := json.Unmarshal([]byte(line), &s); err != nil {
			t.Fatalf("bad span line %q: %v", line, err)
		}
		status[s.ID] = s.Status
		if s.Parent != "" && s.Parent != s.Conn+"#0" {
			t.Errorf("span %s parent = %q", s.ID, s.Parent)
		}
	}
	for id, want := range map[string]string{
		"c0#0": "dropped", "c0#1": "committed", "c0#2": "ok", "c0#3": "dropped",
		"c1#0": "aborted", "c1#1": "aborted",
	} {
		if status[id] != want {
			t.Errorf("span %s status = %q, want %q", id, status[id], want)
		}
	}
}

// TestObserverZeroPerturbation pins the other half of the zero-cost
// contract: attaching an observer publishes nothing, so the bus sequence
// is exactly the driven event count.
func TestObserverZeroPerturbation(t *testing.T) {
	clk := &fakeClock{}
	ref := eventbus.New(clk)
	driveLifecycle(clk, ref)

	clk2 := &fakeClock{}
	bus := eventbus.New(clk2)
	o := New(bus, Sources{}, Options{})
	driveLifecycle(clk2, bus)
	o.Finish(10)

	if bus.Seq() != ref.Seq() {
		t.Fatalf("observer perturbed the stream: seq %d vs %d", bus.Seq(), ref.Seq())
	}
}

func TestObserverDwellAccounting(t *testing.T) {
	clk := &fakeClock{}
	bus := eventbus.New(clk)
	utils := []CellUtil{{Cell: "cellA", Util: 0}, {Cell: "cellB", Util: 0}}
	o := New(bus, Sources{
		CellUtilization: func() []CellUtil { return utils },
		OverloadArmed:   true,
	}, Options{})

	clk.now = 10
	eventbus.Pub(bus, eventbus.OverloadStage{Cell: "cellA", From: "normal", To: "degrade", Util: 0.9})
	clk.now = 30
	eventbus.Pub(bus, eventbus.OverloadStage{Cell: "cellA", From: "degrade", To: "normal", Util: 0.5})
	o.Finish(100)

	dwell := map[string]float64{}
	for _, c := range o.Snapshot().Counters {
		if c.Name == "armnet_overload_stage_dwell_seconds" {
			dwell[c.Labels["cell"]+"/"+c.Labels["stage"]] = c.Value
		}
	}
	if dwell["cellA/normal"] != 80 { // 10 before degrade + 70 after restore
		t.Errorf("cellA normal dwell = %v, want 80", dwell["cellA/normal"])
	}
	if dwell["cellA/degrade"] != 20 {
		t.Errorf("cellA degrade dwell = %v, want 20", dwell["cellA/degrade"])
	}
	if dwell["cellB/normal"] != 100 { // never transitioned, overload armed
		t.Errorf("cellB normal dwell = %v, want 100", dwell["cellB/normal"])
	}
}

// TestObserverDeterministicExports pins byte-identical renderings for
// identical event sequences.
func TestObserverDeterministicExports(t *testing.T) {
	render := func() ([]byte, []byte, []byte) {
		clk := &fakeClock{}
		bus := eventbus.New(clk)
		var spans bytes.Buffer
		o := New(bus, Sources{
			CellUtilization: func() []CellUtil { return []CellUtil{{Cell: "cellA", Util: 0.5}} },
		}, Options{Spans: &spans})
		driveLifecycle(clk, bus)
		o.Finish(10)
		snap := o.Snapshot()
		return snap.Prometheus(), snap.JSON(), spans.Bytes()
	}
	p1, j1, s1 := render()
	p2, j2, s2 := render()
	if !bytes.Equal(p1, p2) {
		t.Errorf("Prometheus rendering differs between identical runs")
	}
	if !bytes.Equal(j1, j2) {
		t.Errorf("JSON rendering differs between identical runs")
	}
	if !bytes.Equal(s1, s2) {
		t.Errorf("span export differs between identical runs")
	}
}

func TestFinishIdempotent(t *testing.T) {
	clk := &fakeClock{}
	bus := eventbus.New(clk)
	o := New(bus, Sources{
		CellUtilization: func() []CellUtil { return []CellUtil{{Cell: "cellA", Util: 1}} },
		OverloadArmed:   true,
	}, Options{})
	o.Finish(50)
	first := o.Snapshot().Prometheus()
	o.Finish(75)
	if second := o.Snapshot().Prometheus(); !bytes.Equal(first, second) {
		t.Fatalf("second Finish changed the snapshot:\n%s\nvs\n%s", first, second)
	}
}
