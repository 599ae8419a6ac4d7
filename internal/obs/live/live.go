// Package live is the wall-clock observability layer for the live
// control plane: per-node wire instruments and causal frame spans for
// the testnet's transport, lease, and fault machinery.
//
// The sim-side observer (internal/obs) subscribes to the event bus and
// measures the control plane's *decisions*; this package measures the
// *wire* — frames by kind and byte count, acks and losses, retransmits,
// lease traffic, fault verdicts, malformed input — from hook seams in
// internal/testnet, the same injection style internal/faults uses. The
// protocol packages stay untouched and the wire format is unchanged:
// spans are correlated purely from frame identities (conn, hop, commit
// flag) that already cross the wire.
//
// # Zero cost when disarmed
//
// Every hook is a method on a possibly-nil *Controller or *NodeRecorder
// and returns immediately on nil, so a run without observability pays
// one nil check per hook site: no allocations, no time reads, no trace
// perturbation. TestLiveObsZeroCost in internal/testnet pins the
// controller and node traces byte-identical with the layer disarmed,
// and the armed loopback run is pinned deterministic by golden.
//
// # Concurrency
//
// Unlike the sim observer (single-threaded inside the event loop), live
// recorders are scraped by a telemetry HTTP server while the run
// mutates them, so every method takes an internal mutex. Hook sites are
// hot but the critical sections are counter bumps; contention is the
// scrape, which is rare.
package live

import (
	"sync"

	"armnet/internal/eventbus"
	"armnet/internal/obs"
	"armnet/internal/wire"
)

// Histogram bucket bounds (upper edges, seconds). Fixed bounds are the
// merge contract, exactly as in the sim observer. Loopback round trips
// land in the first bucket (synchronous delivery takes zero sim time);
// the finer low edges exist for real UDP runs.
var wireRTTBounds = []float64{0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25}

// Controller is the controller-process recorder: it counts every frame
// the transport sends, the lease manager's renewals, the fault layer's
// verdicts, and correlates cross-node spans from frame identities. A
// nil *Controller is a valid disarmed recorder — every method no-ops.
type Controller struct {
	mu  sync.Mutex
	reg *obs.Registry
	now func() float64
	sp  *correlator
}

// NewController returns an armed recorder reading time from now (the
// run's clock: sim seconds on loopback, wall seconds on UDP). A nil now
// stamps zero until SetNow injects a clock — the testnet run does this
// at wiring time, so callers that construct the recorder before the run
// exists (armnode's telemetry path) just pass nil.
func NewController(now func() float64) *Controller {
	if now == nil {
		now = func() float64 { return 0 }
	}
	c := &Controller{reg: obs.NewRegistry(), now: now}
	c.sp = newCorrelator(now,
		c.reg.Histogram("armnet_wire_setup_rtt_seconds", nil, wireRTTBounds),
		c.reg.Histogram("armnet_wire_handoff_break_seconds", nil, wireRTTBounds),
		c.reg.Histogram("armnet_wire_lease_rtt_seconds", nil, wireRTTBounds),
	)
	return c
}

// SetNow replaces the recorder's time source; the testnet run injects
// its own clock (sim seconds on loopback, wall seconds on UDP) at
// wiring time so spans share the run's coordinates.
func (c *Controller) SetNow(now func() float64) {
	if c == nil || now == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.now = now
	c.sp.now = now
}

// FrameTx records one payload frame handed to an agent: kind and byte
// counters, the ack/loss outcome, and the span correlator's view of the
// frame identity. Called from both transports' send paths.
func (c *Controller) FrameTx(agent string, m wire.Message, size int, acked bool) {
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

// Verdict records one fault-layer action by family: drop, dup, delay,
// reorder, partition, crash, restart.
func (c *Controller) Verdict(family string) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.reg.Counter("armnet_wire_fault_verdicts_total", map[string]string{"family": family}).Inc()
}

// LeaseRenew records one lease renewal round trip to an agent: the
// renewal counter, the RTT histogram, and a closed wire-lease span.
func (c *Controller) LeaseRenew(agent string, start, end float64, acked bool) {
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

// LeaseReclaim records one connection torn down by lease expiry.
func (c *Controller) LeaseReclaim(conn string) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.reg.Counter("armnet_wire_lease_reclaims_total", nil).Inc()
	c.sp.abort(conn, "lease-reclaimed")
}

// Resync records one controller-side resync handshake with a restarted
// or healed agent.
func (c *Controller) Resync(agent string) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.reg.Counter("armnet_wire_resyncs_total", map[string]string{"node": agent}).Inc()
}

// HandoffBreak marks the break-before-make instant of a handoff: the
// old path is released and the wire-handoff span opens; it closes when
// the replacement setup's last commit frame goes out.
func (c *Controller) HandoffBreak(conn, from, to string) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.sp.handoffBreak(conn, from, to)
}

// Attach subscribes bus-carried controller events — retransmits by
// protocol and setup give-ups by reason. Subscribers only read, so the
// bus trace is unchanged (the zero-perturbation contract the sim
// observer already pins).
func (c *Controller) Attach(bus *eventbus.Bus) {
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

// Finish closes every still-open span at the given time, in sorted
// connection order (deterministic output). Idempotent.
func (c *Controller) Finish(end float64) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.sp.finish(end)
}

// snapshot exports the controller registry's current state. Safe to
// call concurrently with the run (the telemetry scrape path).
func (c *Controller) snapshot() *obs.Snapshot {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.reg.Snapshot()
}

// SpansJSONL renders the closed spans one JSON object per line, the
// same shape as sim span exports.
func (c *Controller) SpansJSONL() []byte {
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

// FrameRx records one decoded frame of the given kind and encoded size.
func (n *NodeRecorder) FrameRx(t wire.Type, size int) {
	if n == nil {
		return
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	n.reg.Counter("armnet_wire_frames_rx_total", map[string]string{"kind": t.String(), "node": n.node}).Inc()
	n.reg.Counter("armnet_wire_bytes_rx_total", map[string]string{"node": n.node}).Add(float64(size))
}

// Malformed records one undecodable frame.
func (n *NodeRecorder) Malformed() {
	if n == nil {
		return
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	n.reg.Counter("armnet_wire_malformed_total", map[string]string{"node": n.node}).Inc()
}

// Oversized records one datagram exceeding wire.MaxFrame.
func (n *NodeRecorder) Oversized() {
	if n == nil {
		return
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	n.reg.Counter("armnet_wire_oversized_total", map[string]string{"node": n.node}).Inc()
}

// Restart records one crash-restart lifecycle transition.
func (n *NodeRecorder) Restart() {
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
func ClusterSnapshot(ctrl *Controller, nodes []*NodeRecorder) (*obs.Snapshot, error) {
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
