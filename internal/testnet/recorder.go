package testnet

import (
	"sync"

	"armnet/internal/eventbus"
	"armnet/internal/obs"
	"armnet/internal/wire"
)

// The live plane's wire recorders: per-node wire instruments and causal
// frame spans, fed from this package's transport, lease and fault hook
// seams.
//
// The sim-side observer (internal/obs) subscribes to the event bus and
// measures the control plane's *decisions*; these recorders measure the
// *wire* — frames by kind and byte count, acks and losses, retransmits,
// lease traffic, fault verdicts, malformed input. The protocol packages
// stay untouched and the wire format is unchanged: spans are correlated
// purely from frame identities (conn, hop, commit flag) that already
// cross the wire.
//
// Zero cost when disarmed: every hook is a method on a possibly-nil
// *WireRecorder or *NodeRecorder and returns immediately on nil, so a
// run without observability pays one nil check per hook site: no
// allocations, no time reads, no trace perturbation. TestLiveObsZeroCost
// pins the controller and node traces byte-identical with the recorders
// disarmed, and the armed loopback run is pinned deterministic by
// golden.
//
// Concurrency: unlike the sim observer (single-threaded inside the
// event loop), live recorders are scraped by a telemetry HTTP server
// while the run mutates them, so every method takes an internal mutex.
// Hook sites are hot but the critical sections are counter bumps;
// contention is the scrape, which is rare.

// Histogram bucket bounds (upper edges, seconds). Fixed bounds are the
// merge contract, exactly as in the sim observer. Loopback round trips
// land in the first bucket (synchronous delivery takes zero sim time);
// the finer low edges exist for real UDP runs.
var wireRTTBounds = []float64{0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25}

// WireRecorder is the controller-process recorder: it counts every frame
// the transport sends, the lease manager's renewals, the fault layer's
// verdicts, and correlates cross-node spans from frame identities. A
// nil *WireRecorder is a valid disarmed recorder — every method no-ops.
type WireRecorder struct {
	mu  sync.Mutex
	reg *obs.Registry
	sp  *correlator
}

// NewWireRecorder returns an armed recorder. Run stamps it with the
// run's own clock (sim seconds on loopback, wall seconds on UDP), so
// spans share the run's coordinates.
func NewWireRecorder() *WireRecorder {
	c := &WireRecorder{reg: obs.NewRegistry()}
	c.sp = newCorrelator(
		c.reg.Histogram("armnet_wire_setup_rtt_seconds", nil, wireRTTBounds),
		c.reg.Histogram("armnet_wire_handoff_break_seconds", nil, wireRTTBounds),
		c.reg.Histogram("armnet_wire_lease_rtt_seconds", nil, wireRTTBounds),
	)
	return c
}

// setClock points the recorder's span stamps at the run's clock.
func (c *WireRecorder) setClock(now func() float64) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.sp.now = now
}

// frameTx records one payload frame handed to an agent: kind and byte
// counters, the ack/loss outcome, and the span correlator's view of the
// frame identity. Called from both transports' send paths.
func (c *WireRecorder) frameTx(agent string, m wire.Message, size int, acked bool) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	kind := m.WireType().String()
	c.reg.Counter("armnet_wire_frames_tx_total", map[string]string{"kind": kind, "node": agent}).Inc()
	c.reg.Counter("armnet_wire_bytes_tx_total", map[string]string{"node": agent}).Add(float64(size))
	if acked {
		c.reg.Counter("armnet_wire_acks_total", map[string]string{"node": agent}).Inc()
	} else {
		c.reg.Counter("armnet_wire_unacked_total", map[string]string{"node": agent}).Inc()
	}
	c.sp.observeTx(m)
}

// verdict records one fault-layer action by family: drop, dup, delay,
// reorder, partition, crash, restart.
func (c *WireRecorder) verdict(family string) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.reg.Counter("armnet_wire_fault_verdicts_total", map[string]string{"family": family}).Inc()
}

// leaseRenew records one lease renewal round trip to an agent: the
// renewal counter, the RTT histogram, and a closed wire-lease span.
func (c *WireRecorder) leaseRenew(agent string, start, end float64, acked bool) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.reg.Counter("armnet_wire_lease_renews_total", map[string]string{"node": agent}).Inc()
	if !acked {
		c.reg.Counter("armnet_wire_lease_misses_total", map[string]string{"node": agent}).Inc()
	}
	c.sp.leaseSpan(agent, start, end, acked)
}

// leaseReclaim records one connection torn down by lease expiry.
func (c *WireRecorder) leaseReclaim(conn string) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.reg.Counter("armnet_wire_lease_reclaims_total", nil).Inc()
	c.sp.abort(conn, "lease-reclaimed")
}

// resync records one controller-side resync handshake with a restarted
// or healed agent.
func (c *WireRecorder) resync(agent string) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.reg.Counter("armnet_wire_resyncs_total", map[string]string{"node": agent}).Inc()
}

// handoffBreak marks the break-before-make instant of a handoff: the
// old path is released and the wire-handoff span opens; it closes when
// the replacement setup's last commit frame goes out.
func (c *WireRecorder) handoffBreak(conn, from, to string) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.sp.handoffBreak(conn, from, to)
}

// attach subscribes bus-carried controller events — retransmits by
// protocol and setup give-ups by reason. Subscribers only read, so the
// bus trace is unchanged (the zero-perturbation contract the sim
// observer already pins).
func (c *WireRecorder) attach(bus *eventbus.Bus) {
	if c == nil || bus == nil {
		return
	}
	bus.Subscribe(func(rec eventbus.Record) {
		ev := rec.Event.(eventbus.ControlRetransmit)
		c.mu.Lock()
		c.reg.Counter("armnet_wire_retransmits_total", map[string]string{"proto": ev.Proto}).Inc()
		c.mu.Unlock()
	}, eventbus.KindControlRetransmit)
	bus.Subscribe(func(rec eventbus.Record) {
		ev := rec.Event.(eventbus.SignalAbort)
		c.mu.Lock()
		c.reg.Counter("armnet_wire_giveups_total", map[string]string{"reason": ev.Reason}).Inc()
		c.sp.abort(ev.Conn, ev.Reason)
		c.mu.Unlock()
	}, eventbus.KindSignalAbort)
}

// finish closes every still-open span at the given time, in sorted
// connection order (deterministic output). Idempotent.
func (c *WireRecorder) finish(end float64) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.sp.finish(end)
}

// snapshot exports the controller registry's current state. Safe to
// call concurrently with the run (the telemetry scrape path).
func (c *WireRecorder) snapshot() *obs.Snapshot {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.reg.Snapshot()
}

// SpansJSONL renders the closed spans one JSON object per line, the
// same shape as sim span exports.
func (c *WireRecorder) SpansJSONL() []byte {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.sp.jsonl()
}

// NodeRecorder is the node-agent recorder: receive-side counters for
// one agent, labeled with its name so cluster merges stay per-node. A
// nil *NodeRecorder is a valid disarmed recorder.
type NodeRecorder struct {
	mu   sync.Mutex
	reg  *obs.Registry
	node string
}

// NewNodeRecorder returns an armed recorder for the named agent.
func NewNodeRecorder(node string) *NodeRecorder {
	return &NodeRecorder{reg: obs.NewRegistry(), node: node}
}

// frameRx records one decoded frame of the given kind and encoded size.
func (n *NodeRecorder) frameRx(t wire.Type, size int) {
	if n == nil {
		return
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	n.reg.Counter("armnet_wire_frames_rx_total", map[string]string{"kind": t.String(), "node": n.node}).Inc()
	n.reg.Counter("armnet_wire_bytes_rx_total", map[string]string{"node": n.node}).Add(float64(size))
}

// malformed records one undecodable frame.
func (n *NodeRecorder) malformed() {
	if n == nil {
		return
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	n.reg.Counter("armnet_wire_malformed_total", map[string]string{"node": n.node}).Inc()
}

// oversized records one datagram exceeding wire.MaxFrame.
func (n *NodeRecorder) oversized() {
	if n == nil {
		return
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	n.reg.Counter("armnet_wire_oversized_total", map[string]string{"node": n.node}).Inc()
}

// restart records one crash-restart lifecycle transition.
func (n *NodeRecorder) restart() {
	if n == nil {
		return
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	n.reg.Counter("armnet_wire_node_restarts_total", map[string]string{"node": n.node}).Inc()
}

// snapshot exports the node registry's current state.
func (n *NodeRecorder) snapshot() *obs.Snapshot {
	if n == nil {
		return nil
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.reg.Snapshot()
}

// ClusterSnapshot merges the controller snapshot with every node
// snapshot, in slice order, into one cluster view (nil recorders are
// skipped). Node series carry {node} labels, so nothing collides.
func ClusterSnapshot(ctrl *WireRecorder, nodes []*NodeRecorder) (*obs.Snapshot, error) {
	snaps := make([]*obs.Snapshot, 0, len(nodes)+1)
	snaps = append(snaps, ctrl.snapshot())
	for _, n := range nodes {
		snaps = append(snaps, n.snapshot())
	}
	merged, err := obs.MergeAll(snaps)
	if err != nil {
		return nil, err
	}
	if merged != nil {
		// The cluster view is one logical export, not an averaged
		// replication set: every counter is already a disjoint series.
		merged.Runs = 1
	}
	return merged, nil
}
