package eventbus

// Kind identifies the concrete type of an Event. The set is closed: the
// control plane's observable vocabulary is defined here, and subscribers
// can switch exhaustively on it.
type Kind int

const (
	// KindConnectionRequested marks the arrival of a new-connection
	// request, before any admission test runs.
	KindConnectionRequested Kind = iota
	// KindConnectionAdmitted marks a new connection entering service
	// (possibly best-effort).
	KindConnectionAdmitted
	// KindConnectionBlocked marks a new connection rejected outright.
	KindConnectionBlocked
	// KindConnectionClosed marks a voluntary teardown.
	KindConnectionClosed
	// KindAdmissionDecision is the trace-level outcome of every
	// admission.Controller.Admit call, including renegotiations and
	// per-receiver multicast legs that the aggregate counters ignore.
	KindAdmissionDecision
	// KindHandoffAttempt marks one connection starting a handoff re-test
	// in the destination cell.
	KindHandoffAttempt
	// KindHandoffOutcome resolves an attempt: carried over or dropped.
	KindHandoffOutcome
	// KindHandoffLatency reports the signaling latency charged to one
	// connection's handoff (predicted cells pay less, §6.2).
	KindHandoffLatency
	// KindPoolClaim marks an unpredicted handoff dipping into the shared
	// B_dyn pool.
	KindPoolClaim
	// KindAdvanceReservation marks b_resv,l being (re)placed in a cell
	// for a predicted portable.
	KindAdvanceReservation
	// KindPolicyReservation marks a reserve-package policy (meeting
	// schedule, lounge heuristic) holding capacity in a cell.
	KindPolicyReservation
	// KindBandwidthChange marks the rate-adaptation layer committing a
	// new allocation to a running connection.
	KindBandwidthChange
	// KindAdaptationRound marks one ADVERTISE round of the maxmin
	// protocol stamping a rate for a connection.
	KindAdaptationRound
	// KindMaxminConverged marks the maxmin protocol going quiescent: no
	// active or dirty sessions remain.
	KindMaxminConverged
	// KindCapacityChange marks a wireless channel's effective capacity
	// shifting to a new level.
	KindCapacityChange
	// KindSignalHold marks a tentative per-link hold placed by the
	// signaling plane's forward pass (§5.1).
	KindSignalHold
	// KindSignalCommit marks a signaling session converting its holds
	// into a committed connection.
	KindSignalCommit
	// KindSignalAbort marks a signaling session rolling its holds back.
	KindSignalAbort
	// KindFlowStarted marks a packet-level flow starting in the data
	// plane.
	KindFlowStarted
	// KindFlowStopped marks a data-plane flow stopping, with its final
	// packet accounting.
	KindFlowStopped
	// KindFaultMessage marks a fault-injection rule acting on one control
	// message (drop, duplicate, or delay).
	KindFaultMessage
	// KindFaultComponent marks an injected component fault or its
	// scheduled restoration (link down/up, cell outage, zone crash,
	// wireless blackout, signaling-plane crash).
	KindFaultComponent
	// KindControlRetransmit marks a control-plane sender retrying a lost
	// message after a backoff.
	KindControlRetransmit
	// KindHoldReclaimed marks a lease expiring on an orphaned tentative
	// hold or advance reservation, returning the capacity to the ledger.
	KindHoldReclaimed
	// KindReadvertise marks the periodic re-ADVERTISE sweep kicking
	// connections whose committed rate drifted from the maxmin fixpoint.
	KindReadvertise
	// KindInvariantViolation marks the fault auditor detecting a broken
	// recovery invariant.
	KindInvariantViolation
	// KindOverloadStage marks a cell's overload controller moving between
	// escalation stages (normal, degrade, shed-static, shed-mobile).
	KindOverloadStage
	// KindSetupShed marks a new-connection setup refused by the overload
	// controller before any signaling started (priority shed, token
	// bucket, or breaker fast-fail).
	KindSetupShed
	// KindDegradeCascade marks one connection forced to b_min (or
	// restored from it) by an overload degrade cascade.
	KindDegradeCascade
	// KindBreakerState marks the signaling circuit breaker changing state
	// (closed, open, half-open).
	KindBreakerState
	// KindWireDelivery marks a testnet node receiving one encoded control
	// frame off the wire (live mode or in-process loopback).
	KindWireDelivery

	kindCount int = iota
)

var kindNames = [kindCount]string{
	KindConnectionRequested: "connection-requested",
	KindConnectionAdmitted:  "connection-admitted",
	KindConnectionBlocked:   "connection-blocked",
	KindConnectionClosed:    "connection-closed",
	KindAdmissionDecision:   "admission-decision",
	KindHandoffAttempt:      "handoff-attempt",
	KindHandoffOutcome:      "handoff-outcome",
	KindHandoffLatency:      "handoff-latency",
	KindPoolClaim:           "pool-claim",
	KindAdvanceReservation:  "advance-reservation",
	KindPolicyReservation:   "policy-reservation",
	KindBandwidthChange:     "bandwidth-change",
	KindAdaptationRound:     "adaptation-round",
	KindMaxminConverged:     "maxmin-converged",
	KindCapacityChange:      "capacity-change",
	KindSignalHold:          "signal-hold",
	KindSignalCommit:        "signal-commit",
	KindSignalAbort:         "signal-abort",
	KindFlowStarted:         "flow-started",
	KindFlowStopped:         "flow-stopped",
	KindFaultMessage:        "fault-message",
	KindFaultComponent:      "fault-component",
	KindControlRetransmit:   "control-retransmit",
	KindHoldReclaimed:       "hold-reclaimed",
	KindReadvertise:         "readvertise",
	KindInvariantViolation:  "invariant-violation",
	KindOverloadStage:       "overload-stage",
	KindSetupShed:           "setup-shed",
	KindDegradeCascade:      "degrade-cascade",
	KindBreakerState:        "breaker-state",
	KindWireDelivery:        "wire-delivery",
}

// String returns the stable wire name used in JSONL traces.
func (k Kind) String() string {
	if k < 0 || int(k) >= kindCount {
		return "unknown"
	}
	return kindNames[k]
}

// Event is the sealed payload interface: exactly the types in this file
// implement it, which the unexported method makes a compile-time fact.
//
// A payload's struct tags declare its JSON form; appendJSON, written by
// hand next to each struct, appends that form to dst — byte-identical
// to encoding/json of the tagged struct (declaration order, omitempty,
// HTML-safe string escaping, shortest floats), pinned per kind by
// TestAppendMatchesEncodingJSON. A non-finite float is appended behind
// the nonFinite flag byte for the Recorder to reject.
type Event interface {
	Kind() Kind
	appendJSON(dst []byte) []byte
}

// ConnectionRequested is published when a portable asks for a new
// connection, before a route or ID exists (Conn is empty until admission
// is attempted).
type ConnectionRequested struct {
	Portable string `json:"portable"`
}

func (e ConnectionRequested) appendJSON(dst []byte) []byte {
	dst = appendString(dst, `{"portable":`, e.Portable)
	return append(dst, '}')
}

// ConnectionAdmitted is published when a new connection enters service.
// BestEffort marks connections carried without a QoS contract.
type ConnectionAdmitted struct {
	Conn       string  `json:"conn"`
	Portable   string  `json:"portable"`
	Bandwidth  float64 `json:"bw"`
	BestEffort bool    `json:"best_effort,omitempty"`
}

func (e ConnectionAdmitted) appendJSON(dst []byte) []byte {
	dst = appendString(dst, `{"conn":`, e.Conn)
	dst = appendString(dst, `,"portable":`, e.Portable)
	dst = appendFloat(dst, `,"bw":`, e.Bandwidth)
	if e.BestEffort {
		dst = append(dst, `,"best_effort":true`...)
	}
	return append(dst, '}')
}

// ConnectionBlocked is published when a new connection is rejected.
type ConnectionBlocked struct {
	Portable string `json:"portable"`
	Reason   string `json:"reason,omitempty"`
}

func (e ConnectionBlocked) appendJSON(dst []byte) []byte {
	dst = appendString(dst, `{"portable":`, e.Portable)
	if e.Reason != "" {
		dst = appendString(dst, `,"reason":`, e.Reason)
	}
	return append(dst, '}')
}

// ConnectionClosed is published on voluntary teardown.
type ConnectionClosed struct {
	Conn     string `json:"conn"`
	Portable string `json:"portable"`
}

func (e ConnectionClosed) appendJSON(dst []byte) []byte {
	dst = appendString(dst, `{"conn":`, e.Conn)
	dst = appendString(dst, `,"portable":`, e.Portable)
	return append(dst, '}')
}

// AdmissionDecision is published by the admission controller for every
// completed Table 2 round trip (validation errors excluded).
type AdmissionDecision struct {
	Conn      string  `json:"conn"`
	Class     string  `json:"kind"` // "new", "handoff", "pool-claim"
	Admitted  bool    `json:"admitted"`
	Reason    string  `json:"reason,omitempty"`
	Link      string  `json:"link,omitempty"` // forward-pass failure site
	Bandwidth float64 `json:"bw,omitempty"`   // committed b_j on success
}

func (e AdmissionDecision) appendJSON(dst []byte) []byte {
	dst = appendString(dst, `{"conn":`, e.Conn)
	dst = appendString(dst, `,"kind":`, e.Class)
	dst = appendBool(dst, `,"admitted":`, e.Admitted)
	if e.Reason != "" {
		dst = appendString(dst, `,"reason":`, e.Reason)
	}
	if e.Link != "" {
		dst = appendString(dst, `,"link":`, e.Link)
	}
	if e.Bandwidth != 0 {
		dst = appendFloat(dst, `,"bw":`, e.Bandwidth)
	}
	return append(dst, '}')
}

// HandoffAttempt is published once per connection re-tested in the
// destination cell of a handoff.
type HandoffAttempt struct {
	Conn      string `json:"conn"`
	Portable  string `json:"portable"`
	From      string `json:"from"`
	To        string `json:"to"`
	Predicted bool   `json:"predicted"`
}

func (e HandoffAttempt) appendJSON(dst []byte) []byte {
	dst = appendString(dst, `{"conn":`, e.Conn)
	dst = appendString(dst, `,"portable":`, e.Portable)
	dst = appendString(dst, `,"from":`, e.From)
	dst = appendString(dst, `,"to":`, e.To)
	dst = appendBool(dst, `,"predicted":`, e.Predicted)
	return append(dst, '}')
}

// HandoffOutcome resolves a handoff attempt for one connection.
type HandoffOutcome struct {
	Conn     string `json:"conn"`
	Portable string `json:"portable"`
	Dropped  bool   `json:"dropped"`
}

func (e HandoffOutcome) appendJSON(dst []byte) []byte {
	dst = appendString(dst, `{"conn":`, e.Conn)
	dst = appendString(dst, `,"portable":`, e.Portable)
	dst = appendBool(dst, `,"dropped":`, e.Dropped)
	return append(dst, '}')
}

// HandoffLatency reports the signaling latency charged to one
// connection's handoff.
type HandoffLatency struct {
	Conn      string  `json:"conn"`
	Portable  string  `json:"portable"`
	Predicted bool    `json:"predicted"`
	Latency   float64 `json:"latency"`
}

func (e HandoffLatency) appendJSON(dst []byte) []byte {
	dst = appendString(dst, `{"conn":`, e.Conn)
	dst = appendString(dst, `,"portable":`, e.Portable)
	dst = appendBool(dst, `,"predicted":`, e.Predicted)
	dst = appendFloat(dst, `,"latency":`, e.Latency)
	return append(dst, '}')
}

// PoolClaim is published when an unpredicted handoff claims from B_dyn.
type PoolClaim struct {
	Portable string `json:"portable"`
	From     string `json:"from"`
	To       string `json:"to"`
}

func (e PoolClaim) appendJSON(dst []byte) []byte {
	dst = appendString(dst, `{"portable":`, e.Portable)
	dst = appendString(dst, `,"from":`, e.From)
	dst = appendString(dst, `,"to":`, e.To)
	return append(dst, '}')
}

// AdvanceReservation is published when b_resv,l is placed for a portable
// predicted to enter a cell.
type AdvanceReservation struct {
	Cell     string  `json:"cell"`
	Portable string  `json:"portable"`
	Amount   float64 `json:"amount"`
}

func (e AdvanceReservation) appendJSON(dst []byte) []byte {
	dst = appendString(dst, `{"cell":`, e.Cell)
	dst = appendString(dst, `,"portable":`, e.Portable)
	dst = appendFloat(dst, `,"amount":`, e.Amount)
	return append(dst, '}')
}

// PolicyReservation is published when a reserve-package plan (meeting
// schedule, cafeteria/lounge heuristic) holds capacity in a cell.
type PolicyReservation struct {
	Cell   string  `json:"cell"`
	Source string  `json:"source"`
	Amount float64 `json:"amount"`
}

func (e PolicyReservation) appendJSON(dst []byte) []byte {
	dst = appendString(dst, `{"cell":`, e.Cell)
	dst = appendString(dst, `,"source":`, e.Source)
	dst = appendFloat(dst, `,"amount":`, e.Amount)
	return append(dst, '}')
}

// BandwidthChange is published when rate adaptation commits a new
// allocation to a running connection.
type BandwidthChange struct {
	Conn      string  `json:"conn"`
	Bandwidth float64 `json:"bw"`
}

func (e BandwidthChange) appendJSON(dst []byte) []byte {
	dst = appendString(dst, `{"conn":`, e.Conn)
	dst = appendFloat(dst, `,"bw":`, e.Bandwidth)
	return append(dst, '}')
}

// AdaptationRound is published for each maxmin ADVERTISE round that
// stamps a rate for a connection.
type AdaptationRound struct {
	Conn  string  `json:"conn"`
	Round int     `json:"round"`
	Stamp float64 `json:"stamp"`
}

func (e AdaptationRound) appendJSON(dst []byte) []byte {
	dst = appendString(dst, `{"conn":`, e.Conn)
	dst = appendInt(dst, `,"round":`, e.Round)
	dst = appendFloat(dst, `,"stamp":`, e.Stamp)
	return append(dst, '}')
}

// MaxminConverged is published when the maxmin protocol goes quiescent.
// Sessions and Messages are the protocol's cumulative totals at that
// point, so the deltas between consecutive events cost one burst.
type MaxminConverged struct {
	Sessions int `json:"sessions"`
	Messages int `json:"messages"`
}

func (e MaxminConverged) appendJSON(dst []byte) []byte {
	dst = appendInt(dst, `{"sessions":`, e.Sessions)
	dst = appendInt(dst, `,"messages":`, e.Messages)
	return append(dst, '}')
}

// CapacityChange is published when a wireless channel's effective
// capacity moves to a new level.
type CapacityChange struct {
	Link     string  `json:"link"`
	Capacity float64 `json:"capacity"`
}

func (e CapacityChange) appendJSON(dst []byte) []byte {
	dst = appendString(dst, `{"link":`, e.Link)
	dst = appendFloat(dst, `,"capacity":`, e.Capacity)
	return append(dst, '}')
}

// SignalHold is published when the signaling forward pass places a
// tentative per-link hold.
type SignalHold struct {
	Conn string `json:"conn"`
	Link string `json:"link"`
}

func (e SignalHold) appendJSON(dst []byte) []byte {
	dst = appendString(dst, `{"conn":`, e.Conn)
	dst = appendString(dst, `,"link":`, e.Link)
	return append(dst, '}')
}

// SignalCommit is published when a signaling session commits, carrying
// the end-to-end setup latency.
type SignalCommit struct {
	Conn    string  `json:"conn"`
	Latency float64 `json:"latency"`
}

func (e SignalCommit) appendJSON(dst []byte) []byte {
	dst = appendString(dst, `{"conn":`, e.Conn)
	dst = appendFloat(dst, `,"latency":`, e.Latency)
	return append(dst, '}')
}

// SignalAbort is published when a signaling session rolls back its
// tentative holds. Hop is the 0-based index the session had reached.
type SignalAbort struct {
	Conn   string `json:"conn"`
	Reason string `json:"reason"`
	Hop    int    `json:"hop"`
}

func (e SignalAbort) appendJSON(dst []byte) []byte {
	dst = appendString(dst, `{"conn":`, e.Conn)
	dst = appendString(dst, `,"reason":`, e.Reason)
	dst = appendInt(dst, `,"hop":`, e.Hop)
	return append(dst, '}')
}

// FlowStarted is published when a packet-level flow begins.
type FlowStarted struct {
	Conn string  `json:"conn"`
	Rate float64 `json:"rate"`
}

func (e FlowStarted) appendJSON(dst []byte) []byte {
	dst = appendString(dst, `{"conn":`, e.Conn)
	dst = appendFloat(dst, `,"rate":`, e.Rate)
	return append(dst, '}')
}

// FlowStopped is published when a packet-level flow ends.
type FlowStopped struct {
	Conn      string `json:"conn"`
	Sent      int    `json:"sent"`
	Delivered int    `json:"delivered"`
	Lost      int    `json:"lost"`
}

func (e FlowStopped) appendJSON(dst []byte) []byte {
	dst = appendString(dst, `{"conn":`, e.Conn)
	dst = appendInt(dst, `,"sent":`, e.Sent)
	dst = appendInt(dst, `,"delivered":`, e.Delivered)
	dst = appendInt(dst, `,"lost":`, e.Lost)
	return append(dst, '}')
}

// FaultMessage is published when a fault-injection rule fires on one
// control message. Proto is "signal" or "maxmin"; Action is "drop",
// "dup", or "delay" (Delay carries the added latency).
type FaultMessage struct {
	Proto  string  `json:"proto"`
	Action string  `json:"action"`
	Conn   string  `json:"conn"`
	Hop    int     `json:"hop"`
	Delay  float64 `json:"delay,omitempty"`
}

func (e FaultMessage) appendJSON(dst []byte) []byte {
	dst = appendString(dst, `{"proto":`, e.Proto)
	dst = appendString(dst, `,"action":`, e.Action)
	dst = appendString(dst, `,"conn":`, e.Conn)
	dst = appendInt(dst, `,"hop":`, e.Hop)
	if e.Delay != 0 {
		dst = appendFloat(dst, `,"delay":`, e.Delay)
	}
	return append(dst, '}')
}

// FaultComponent is published when a scheduled component fault (or its
// restoration) fires: "link-down"/"link-up", "cell-out"/"cell-restore",
// "zone-crash", "blackout"/"blackout-end", "signal-crash".
type FaultComponent struct {
	Action string  `json:"action"`
	Target string  `json:"target,omitempty"`
	For    float64 `json:"for,omitempty"` // scheduled outage duration
}

func (e FaultComponent) appendJSON(dst []byte) []byte {
	dst = appendString(dst, `{"action":`, e.Action)
	if e.Target != "" {
		dst = appendString(dst, `,"target":`, e.Target)
	}
	if e.For != 0 {
		dst = appendFloat(dst, `,"for":`, e.For)
	}
	return append(dst, '}')
}

// ControlRetransmit is published when a control-plane sender times out
// on a lost message and retries. Proto is "signal" or "maxmin"; Attempt
// is 1-based.
type ControlRetransmit struct {
	Proto   string `json:"proto"`
	Conn    string `json:"conn"`
	Hop     int    `json:"hop"`
	Attempt int    `json:"attempt"`
}

func (e ControlRetransmit) appendJSON(dst []byte) []byte {
	dst = appendString(dst, `{"proto":`, e.Proto)
	dst = appendString(dst, `,"conn":`, e.Conn)
	dst = appendInt(dst, `,"hop":`, e.Hop)
	dst = appendInt(dst, `,"attempt":`, e.Attempt)
	return append(dst, '}')
}

// HoldReclaimed is published when a lease expires on state orphaned by a
// crash: a signaling plane's tentative hold or a stale advance
// reservation returns to the ledger.
type HoldReclaimed struct {
	Conn   string  `json:"conn,omitempty"`
	Link   string  `json:"link"`
	Amount float64 `json:"amount"`
	Reason string  `json:"reason"`
}

func (e HoldReclaimed) appendJSON(dst []byte) []byte {
	dst = append(dst, '{')
	if e.Conn != "" { // the optional field comes first, so the comma moves
		dst = append(appendString(dst, `"conn":`, e.Conn), ',')
	}
	dst = appendString(dst, `"link":`, e.Link)
	dst = appendFloat(dst, `,"amount":`, e.Amount)
	dst = appendString(dst, `,"reason":`, e.Reason)
	return append(dst, '}')
}

// Readvertise is published when the periodic re-ADVERTISE sweep restarts
// adaptation for connections that drifted from the maxmin fixpoint
// (typically after control-packet loss ate an UPDATE).
type Readvertise struct {
	Kicked int `json:"kicked"`
}

func (e Readvertise) appendJSON(dst []byte) []byte {
	dst = appendInt(dst, `{"kicked":`, e.Kicked)
	return append(dst, '}')
}

// InvariantViolation is published by the fault auditor when a recovery
// invariant fails to hold.
type InvariantViolation struct {
	Invariant string `json:"invariant"`
	Detail    string `json:"detail"`
}

func (e InvariantViolation) appendJSON(dst []byte) []byte {
	dst = appendString(dst, `{"invariant":`, e.Invariant)
	dst = appendString(dst, `,"detail":`, e.Detail)
	return append(dst, '}')
}

// OverloadStage is published when a cell's overload controller changes
// escalation stage. Util is the EWMA utilization that drove the
// transition; Queue is the signaling setup-queue depth at sample time.
type OverloadStage struct {
	Cell  string  `json:"cell"`
	From  string  `json:"from"`
	To    string  `json:"to"`
	Util  float64 `json:"util"`
	Queue int     `json:"queue,omitempty"`
}

func (e OverloadStage) appendJSON(dst []byte) []byte {
	dst = appendString(dst, `{"cell":`, e.Cell)
	dst = appendString(dst, `,"from":`, e.From)
	dst = appendString(dst, `,"to":`, e.To)
	dst = appendFloat(dst, `,"util":`, e.Util)
	if e.Queue != 0 {
		dst = appendInt(dst, `,"queue":`, e.Queue)
	}
	return append(dst, '}')
}

// SetupShed is published when the overload controller refuses a new
// setup before signaling starts. Class is "new-static" or "new-mobile"
// (handoffs are never shed); Reason is "shed-static", "shed-mobile",
// "bucket", or "breaker-open".
type SetupShed struct {
	Portable string `json:"portable"`
	Cell     string `json:"cell"`
	Class    string `json:"class"`
	Reason   string `json:"reason"`
}

func (e SetupShed) appendJSON(dst []byte) []byte {
	dst = appendString(dst, `{"portable":`, e.Portable)
	dst = appendString(dst, `,"cell":`, e.Cell)
	dst = appendString(dst, `,"class":`, e.Class)
	dst = appendString(dst, `,"reason":`, e.Reason)
	return append(dst, '}')
}

// DegradeCascade is published for each connection an overload degrade
// cascade forces to b_min ("degrade") or later releases ("restore").
type DegradeCascade struct {
	Conn   string `json:"conn"`
	Link   string `json:"link"`
	Action string `json:"action"`
}

func (e DegradeCascade) appendJSON(dst []byte) []byte {
	dst = appendString(dst, `{"conn":`, e.Conn)
	dst = appendString(dst, `,"link":`, e.Link)
	dst = appendString(dst, `,"action":`, e.Action)
	return append(dst, '}')
}

// BreakerState is published when the signaling circuit breaker changes
// state. Reason explains the trigger ("failure-rate",
// "retransmit-pressure", "probe-failed", "cooldown", "probe-succeeded").
type BreakerState struct {
	From   string `json:"from"`
	To     string `json:"to"`
	Reason string `json:"reason"`
}

func (e BreakerState) appendJSON(dst []byte) []byte {
	dst = appendString(dst, `{"from":`, e.From)
	dst = appendString(dst, `,"to":`, e.To)
	dst = appendString(dst, `,"reason":`, e.Reason)
	return append(dst, '}')
}

// WireDelivery is published by a testnet node for every control frame
// it receives: the node's name, the protocol the frame belongs to
// ("signal" or "maxmin"), the wire message type, and the frame size.
// Hop is the protocol's 0-based transmission index (matching the
// delivery-hook coordinate of internal/faults).
type WireDelivery struct {
	Node  string `json:"node"`
	Proto string `json:"proto"`
	Type  string `json:"msg"`
	Conn  string `json:"conn,omitempty"`
	Hop   int    `json:"hop"`
	Bytes int    `json:"bytes"`
}

func (e WireDelivery) appendJSON(dst []byte) []byte {
	dst = appendString(dst, `{"node":`, e.Node)
	dst = appendString(dst, `,"proto":`, e.Proto)
	dst = appendString(dst, `,"msg":`, e.Type)
	if e.Conn != "" {
		dst = appendString(dst, `,"conn":`, e.Conn)
	}
	dst = appendInt(dst, `,"hop":`, e.Hop)
	dst = appendInt(dst, `,"bytes":`, e.Bytes)
	return append(dst, '}')
}

func (WireDelivery) Kind() Kind { return KindWireDelivery }

func (ConnectionRequested) Kind() Kind { return KindConnectionRequested }
func (ConnectionAdmitted) Kind() Kind  { return KindConnectionAdmitted }
func (ConnectionBlocked) Kind() Kind   { return KindConnectionBlocked }
func (ConnectionClosed) Kind() Kind    { return KindConnectionClosed }
func (AdmissionDecision) Kind() Kind   { return KindAdmissionDecision }
func (HandoffAttempt) Kind() Kind      { return KindHandoffAttempt }
func (HandoffOutcome) Kind() Kind      { return KindHandoffOutcome }
func (HandoffLatency) Kind() Kind      { return KindHandoffLatency }
func (PoolClaim) Kind() Kind           { return KindPoolClaim }
func (AdvanceReservation) Kind() Kind  { return KindAdvanceReservation }
func (PolicyReservation) Kind() Kind   { return KindPolicyReservation }
func (BandwidthChange) Kind() Kind     { return KindBandwidthChange }
func (AdaptationRound) Kind() Kind     { return KindAdaptationRound }
func (MaxminConverged) Kind() Kind     { return KindMaxminConverged }
func (CapacityChange) Kind() Kind      { return KindCapacityChange }
func (SignalHold) Kind() Kind          { return KindSignalHold }
func (SignalCommit) Kind() Kind        { return KindSignalCommit }
func (SignalAbort) Kind() Kind         { return KindSignalAbort }
func (FlowStarted) Kind() Kind         { return KindFlowStarted }
func (FlowStopped) Kind() Kind         { return KindFlowStopped }
func (FaultMessage) Kind() Kind        { return KindFaultMessage }
func (FaultComponent) Kind() Kind      { return KindFaultComponent }
func (ControlRetransmit) Kind() Kind   { return KindControlRetransmit }
func (HoldReclaimed) Kind() Kind       { return KindHoldReclaimed }
func (Readvertise) Kind() Kind         { return KindReadvertise }
func (InvariantViolation) Kind() Kind  { return KindInvariantViolation }
func (OverloadStage) Kind() Kind       { return KindOverloadStage }
func (SetupShed) Kind() Kind           { return KindSetupShed }
func (DegradeCascade) Kind() Kind      { return KindDegradeCascade }
func (BreakerState) Kind() Kind        { return KindBreakerState }
