// Package testnet runs the signal and maxmin control protocols over a
// real message fabric — in-process loopback or UDP sockets — and checks
// the live runs against the discrete-event simulation as a correctness
// oracle.
//
// # Architecture
//
// The protocol state machines are untouched: one controller owns the
// signaling plane, the maxmin protocol, and the admission ledger, exactly
// as a simulation harness would. What changes is the plumbing around
// them:
//
//   - Time comes from an injectable clock (internal/clock): the simulator
//     for ModeSim and ModeLoopback, wall time for ModeUDP.
//   - Every control-packet hop crosses the same delivery-hook seams
//     internal/faults uses (signal.Options.Deliver,
//     maxmin.ProtocolOptions.Deliver), each call naming the link its hop
//     crosses. The testnet transport encodes each hop as an
//     internal/wire frame and delivers it to the node agent owning that
//     link; the node decodes it, logs it (its trace renders the log as
//     WireDelivery lines), and acks.
//   - Node agents partition the campus backbone by zone: one agent per
//     zone plus one for the core. They mirror delivery — protocol state
//     stays in the controller — which is why hop-level frames carry
//     addressing (conn, hop) but not protocol internals like stamped
//     rates.
//
// # Oracle
//
// ModeSim runs the scenario with nil delivery hooks: the pure simulation
// reference. ModeLoopback runs the identical scenario with the wire
// transport in place; because the loopback fabric delivers synchronously
// with zero added delay, the controller's event trace must be
// byte-identical to the reference, and the node traces must be identical
// run to run. ModeUDP runs on wall clocks and real sockets; its node
// traces match the loopback ones after normalization (timestamps zeroed,
// per-node frame multisets compared — real scheduling may interleave
// concurrent protocol sessions differently than the simulator did, but
// it must deliver exactly the same frames). See diff.go for the mapping.
package testnet

// mode selects the fabric and clock a scenario runs on.
type mode int

const (
	// ModeSim is the pure simulation: simulator clock, no transport. The
	// reference every live run is diffed against.
	ModeSim mode = iota
	// ModeLoopback is the live wire path on the simulator clock: every
	// hop is encoded, delivered to an in-process node, decoded, and
	// acked — no sockets, fully deterministic. The CI gate.
	ModeLoopback
	// ModeUDP is the fully live path: wall clock, UDP datagrams to node
	// processes (or in-process node servers), ack-or-retransmit.
	ModeUDP
)

func (m mode) String() string {
	switch m {
	case ModeSim:
		return "sim"
	case ModeLoopback:
		return "loopback"
	case ModeUDP:
		return "udp"
	}
	return "unknown"
}
