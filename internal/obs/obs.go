// Package obs is the deterministic observability layer: a pure
// event-bus subscriber that reconstructs per-connection lifecycle spans
// and maintains sim-time instruments (counters, gauges, fixed-bucket
// histograms) for the quantities the paper reports — setup latency,
// handoff interruption time, maxmin convergence cost, per-cell committed
// utilization, overload stage dwell, and three-level predictor hit rate.
//
// Two properties are load-bearing and pinned by tests:
//
//   - Zero cost when disabled. With core.Config.Obs nil nothing here is
//     constructed, no subscription exists, and event traces are
//     byte-identical to a build without the package.
//   - Zero perturbation when enabled. The observer never publishes
//     events, never schedules simulator work, and never touches an RNG,
//     so enabling it leaves the event trace byte-identical too; all its
//     clocks are the simulated times stamped on the records it observes.
//
// Snapshots are deterministic: merged in replication order they are
// byte-identical at any worker count (see Snapshot.Merge).
package obs

import (
	"io"

	"armnet/internal/eventbus"
	"armnet/internal/maxmin"
	"armnet/internal/sortx"
	"armnet/internal/stats"
)

// Options configures an Observer. The zero value is valid: spans are
// still reconstructed (and counted in armnet_spans_total), just not
// exported.
type Options struct {
	// Spans, when non-nil, receives one JSON line per closed span.
	Spans io.Writer `json:"-"`
}

// CellUtil is one cell's committed downlink utilization at sample time:
// (sum of committed minima + advance reservations) / capacity.
type CellUtil struct {
	Cell string
	Util float64
}

// Sources are the pull-side taps the observer samples on relevant
// events; the core wires them to the ledger and the maxmin protocol.
// Both funcs must return deterministically ordered slices. Nil funcs
// disable the corresponding instruments.
type Sources struct {
	// CellUtilization returns every cell's committed utilization, sorted
	// by cell ID.
	CellUtilization func() []CellUtil
	// Bottlenecks returns the current maxmin bottleneck set sizes, sorted
	// by link ID.
	Bottlenecks func() []maxmin.LinkBottleneck
	// OverloadArmed reports whether the overload subsystem is active, so
	// Finish can attribute full "normal" dwell to cells that never
	// transitioned.
	OverloadArmed bool
}

// Histogram bucket bounds (upper edges, seconds or dimensionless).
// Fixed bounds are the cross-replication merge contract; changing them
// invalidates checked-in snapshot goldens.
var (
	setupLatencyBounds = []float64{0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1}
	interruptionBounds = []float64{0.001, 0.002, 0.005, 0.01, 0.02, 0.05, 0.1, 0.2, 0.5}
	maxminRoundBounds  = []float64{1, 2, 4, 8, 16, 32, 64, 128}
	maxminPacketBounds = []float64{8, 16, 32, 64, 128, 256, 512, 1024, 2048}
)

type stageState struct {
	stage string
	since float64
}

// Observer is one replication's observability state. It is
// single-threaded (it runs inside the deterministic event loop) and is
// attached with New before the simulation starts.
type Observer struct {
	reg   *Registry
	spans *spanBuilder
	src   Sources

	// Hot-path cached instruments.
	requests     *Counter
	admitted     *Counter
	attempts     *Counter
	predicted    *Counter
	dropped      *Counter
	adaptUpdates *Counter
	convergences *Counter
	setupHist    *Histogram
	interruptOn  *Histogram // predicted="true"
	interruptOff *Histogram // predicted="false"
	roundsHist   *Histogram
	packetsHist  *Histogram
	events       map[eventbus.Kind]*Counter

	util  map[string]*stats.TimeWeighted
	dwell map[string]*stageState

	lastSessions int
	lastMessages int
	burstRounds  int

	finished bool
}

// New builds an observer over the bus. It registers exactly one
// catch-all subscriber and pre-registers the core instrument set so the
// snapshot shape is stable even for quiet runs.
func New(bus *eventbus.Bus, src Sources, opts Options) *Observer {
	reg := NewRegistry()
	o := &Observer{
		reg:    reg,
		src:    src,
		events: make(map[eventbus.Kind]*Counter),
		util:   make(map[string]*stats.TimeWeighted),
		dwell:  make(map[string]*stageState),

		requests:     reg.Counter("armnet_connection_requests_total", nil),
		admitted:     reg.Counter("armnet_connections_admitted_total", nil),
		attempts:     reg.Counter("armnet_handoff_attempts_total", nil),
		predicted:    reg.Counter("armnet_handoffs_predicted_total", nil),
		dropped:      reg.Counter("armnet_handoffs_dropped_total", nil),
		adaptUpdates: reg.Counter("armnet_adaptation_updates_total", nil),
		convergences: reg.Counter("armnet_maxmin_convergences_total", nil),
		setupHist:    reg.Histogram("armnet_setup_latency_seconds", nil, setupLatencyBounds),
		interruptOn: reg.Histogram("armnet_handoff_interruption_seconds",
			map[string]string{"predicted": "true"}, interruptionBounds),
		interruptOff: reg.Histogram("armnet_handoff_interruption_seconds",
			map[string]string{"predicted": "false"}, interruptionBounds),
		roundsHist:  reg.Histogram("armnet_maxmin_rounds_to_converge", nil, maxminRoundBounds),
		packetsHist: reg.Histogram("armnet_maxmin_control_packets", nil, maxminPacketBounds),
	}
	o.spans = newSpanBuilder(opts.Spans, func(name string) {
		o.reg.Counter("armnet_spans_total", map[string]string{"name": name}).Inc()
	})
	o.sampleUtil(0)
	bus.Subscribe(o.observe)
	return o
}

// observe folds one bus record into the instruments and span state.
func (o *Observer) observe(r eventbus.Record) {
	k := r.Event.Kind()
	ec := o.events[k]
	if ec == nil {
		ec = o.reg.Counter("armnet_events_total", map[string]string{"kind": k.String()})
		o.events[k] = ec
	}
	ec.Inc()

	o.spans.observe(r)

	t := r.Time
	switch ev := r.Event.(type) {
	case eventbus.ConnectionRequested:
		o.requests.Inc()
	case eventbus.ConnectionAdmitted:
		o.admitted.Inc()
		o.sampleUtil(t)
	case eventbus.ConnectionBlocked:
		reason := ev.Reason
		if reason == "" {
			reason = "unspecified"
		}
		o.reg.Counter("armnet_connections_blocked_total", map[string]string{"reason": reason}).Inc()
	case eventbus.ConnectionClosed:
		o.sampleUtil(t)
	case eventbus.HandoffAttempt:
		o.attempts.Inc()
		if ev.Predicted {
			o.predicted.Inc()
		}
	case eventbus.HandoffOutcome:
		if ev.Dropped {
			o.dropped.Inc()
		}
		o.sampleUtil(t)
	case eventbus.HandoffLatency:
		if ev.Predicted {
			o.interruptOn.Observe(ev.Latency)
		} else {
			o.interruptOff.Observe(ev.Latency)
		}
	case eventbus.SignalCommit:
		o.setupHist.Observe(ev.Latency)
	case eventbus.BandwidthChange:
		o.adaptUpdates.Inc()
	case eventbus.AdaptationRound:
		if ev.Round > o.burstRounds {
			o.burstRounds = ev.Round
		}
	case eventbus.MaxminConverged:
		o.finishBurst(ev)
	case eventbus.AdvanceReservation, eventbus.PolicyReservation,
		eventbus.HoldReclaimed, eventbus.CapacityChange:
		o.sampleUtil(t)
	case eventbus.DegradeCascade:
		o.sampleUtil(t)
	case eventbus.OverloadStage:
		o.stageChange(ev, t)
	case eventbus.SetupShed:
		o.reg.Counter("armnet_setup_sheds_total", map[string]string{"reason": ev.Reason}).Inc()
	case eventbus.BreakerState:
		o.reg.Counter("armnet_breaker_transitions_total", map[string]string{"to": ev.To}).Inc()
	}
}

// finishBurst closes one maxmin adaptation burst: the deltas of the
// protocol's cumulative session/message totals since the previous
// quiescent point are this burst's cost.
func (o *Observer) finishBurst(ev eventbus.MaxminConverged) {
	msgs := ev.Messages - o.lastMessages
	if msgs > 0 || o.burstRounds > 0 {
		o.convergences.Inc()
		o.roundsHist.Observe(float64(o.burstRounds))
		o.packetsHist.Observe(float64(msgs))
	}
	o.lastSessions = ev.Sessions
	o.lastMessages = ev.Messages
	o.burstRounds = 0
	if o.src.Bottlenecks != nil {
		for _, lb := range o.src.Bottlenecks() {
			o.reg.Gauge("armnet_maxmin_bottleneck_set_size",
				map[string]string{"link": lb.Link}).Set(float64(lb.Size))
		}
	}
}

// stageChange charges the dwell of the stage being left and opens the
// new one. Cells are tracked from their first transition; Finish settles
// the rest.
func (o *Observer) stageChange(ev eventbus.OverloadStage, t float64) {
	st := o.dwell[ev.Cell]
	if st == nil {
		st = &stageState{stage: ev.From}
		o.dwell[ev.Cell] = st
	}
	o.reg.Counter("armnet_overload_stage_dwell_seconds",
		map[string]string{"cell": ev.Cell, "stage": st.stage}).Add(t - st.since)
	o.reg.Counter("armnet_overload_transitions_total",
		map[string]string{"cell": ev.Cell, "to": ev.To}).Inc()
	st.stage = ev.To
	st.since = t
}

// sampleUtil feeds the per-cell committed-utilization integrators at
// simulated time t.
func (o *Observer) sampleUtil(t float64) {
	if o.src.CellUtilization == nil {
		return
	}
	for _, cu := range o.src.CellUtilization() {
		tw := o.util[cu.Cell]
		if tw == nil {
			tw = &stats.TimeWeighted{}
			o.util[cu.Cell] = tw
		}
		tw.Set(t, cu.Util)
	}
}

// RecordPrediction resolves one movement prediction at handoff time.
// Level is the predictor level that produced it ("portable", "cell",
// "default"), class the zone class of the cell it was made in. Called
// directly by the core (not through the bus) so that enabling
// observability never changes the event stream.
func (o *Observer) RecordPrediction(level, class string, hit bool) {
	labels := map[string]string{"level": level, "class": class}
	o.reg.Counter("armnet_predictions_total", labels).Inc()
	if hit {
		o.reg.Counter("armnet_prediction_hits_total", labels).Inc()
	}
}

// Finish settles end-of-run state at simulated time end: open spans
// close with status "open", current overload stages are charged their
// final dwell (cells that never transitioned get the whole run as
// "normal" when overload is armed), and per-cell mean utilization gauges
// are computed. Idempotent; call before Snapshot.
func (o *Observer) Finish(end float64) {
	if o.finished {
		return
	}
	o.finished = true
	o.spans.finish(end)
	o.sampleUtil(end)
	for _, cell := range sortx.Keys(o.dwell) {
		st := o.dwell[cell]
		o.reg.Counter("armnet_overload_stage_dwell_seconds",
			map[string]string{"cell": cell, "stage": st.stage}).Add(end - st.since)
	}
	if o.src.OverloadArmed && o.src.CellUtilization != nil {
		for _, cu := range o.src.CellUtilization() {
			if o.dwell[cu.Cell] == nil {
				o.reg.Counter("armnet_overload_stage_dwell_seconds",
					map[string]string{"cell": cu.Cell, "stage": "normal"}).Add(end)
			}
		}
	}
	for _, cell := range sortx.Keys(o.util) {
		o.reg.Gauge("armnet_cell_utilization_mean",
			map[string]string{"cell": cell}).Set(o.util[cell].Mean(end))
	}
}

// Snapshot exports the current instrument state. Typically called after
// Finish; safe at any time.
func (o *Observer) Snapshot() *Snapshot { return o.reg.Snapshot() }

// SpanErr reports the first span-export write error, if any.
func (o *Observer) SpanErr() error { return o.spans.Err() }
