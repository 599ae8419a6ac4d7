package core

import (
	"armnet/internal/eventbus"
	"armnet/internal/stats"
	"armnet/internal/topology"
)

// Handoff latency model (§4.3, footnote 5): a *predicted* handoff finds
// resources advance-reserved in the target cell and completes with local
// signaling only (base station ↔ base station through their common
// switch); an *unpredicted* handoff (wrong prediction, or sudden movement
// of a static portable) must run a fresh end-to-end admission test over
// the whole route before traffic flows — "this might cause some handoff
// delay, but it reduces the handoff dropping".
//
// The latency is charged per control-message hop at the backbone's
// propagation delays; we track the distributions separately so the
// predicted-vs-unpredicted gap — the benefit advance reservation buys —
// is measurable.

// latencyStats holds the handoff latency distributions.
type latencyStats struct {
	// Predicted is the latency of handoffs that consumed an advance
	// reservation.
	Predicted stats.Welford
	// Unpredicted is the latency of handoffs that required end-to-end
	// re-admission (pool claims).
	Unpredicted stats.Welford
}

// latency returns per-hop control RTT along a route: two passes (forward
// test, reverse reserve) over each link's propagation delay, plus a fixed
// per-hop processing charge.
func signalingLatency(route topology.Route) float64 {
	const perHopProcessing = 200e-6 // 200 µs per switch, era-appropriate
	d := 0.0
	for _, l := range route.Links {
		d += 2 * (l.PropDelay + perHopProcessing)
	}
	return d
}

// localHandoffLatency is the cost of a reservation-backed handoff: one
// exchange between the old and new base stations through their common
// switch (constant in our builder topologies).
func localHandoffLatency() float64 {
	const bsToSwitch = 1e-3
	const perHopProcessing = 200e-6
	return 2 * 2 * (bsToSwitch + perHopProcessing)
}

// recordHandoffLatency publishes one handoff's latency; the Latency
// distributions are subscribers and fold it in from the event.
func (m *Manager) recordHandoffLatency(c *Connection, route topology.Route, predicted bool) float64 {
	var d float64
	if predicted {
		d = localHandoffLatency()
	} else {
		d = signalingLatency(route)
	}
	eventbus.Pub(m.Bus, eventbus.HandoffLatency{
		Conn: c.ID, Portable: c.Portable, Predicted: predicted, Latency: d,
	})
	return d
}
