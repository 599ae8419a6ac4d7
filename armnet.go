// Package armnet is an adaptive resource management library for indoor
// mobile computing environments, reproducing Lu & Bharghavan, "Adaptive
// Resource Management Algorithms for Indoor Mobile Computing
// Environments" (SIGCOMM 1996).
//
// The library provides, as one integrated system:
//
//   - QoS-bounded admission control over a simulated wired+wireless
//     backbone (the paper's Table 2, under WFQ or RCSP scheduling);
//   - maxmin-fair redistribution of excess bandwidth by a distributed
//     ADVERTISE/UPDATE protocol with the paper's M(l) refinement (§5);
//   - static/mobile portable classification, profile servers, three-level
//     next-cell prediction, and per-cell-class advance reservation
//     policies: office, corridor, meeting room (booking calendar),
//     cafeteria (least squares), and the probabilistic default algorithm
//     (§3, §6);
//   - a deterministic discrete-event simulator, mobility and traffic
//     generators calibrated to the paper's published measurements, and
//     experiment harnesses that regenerate every table and figure of the
//     paper's evaluation (§7).
//
// # Quick start
//
//	env, _ := armnet.BuildCampus()
//	net, _ := armnet.NewNetwork(env, armnet.Config{Seed: 42})
//	net.PlacePortable("alice", "off-1")
//	id, _ := net.OpenConnection("alice", armnet.Request{
//		Bandwidth: armnet.Bounds{Min: 64e3, Max: 256e3},
//		Delay:     2, Jitter: 2, Loss: 0.02,
//		Traffic:   armnet.TrafficSpec{Sigma: 16e3, Rho: 64e3},
//	})
//	net.RunUntil(600) // simulated seconds; adaptation upgrades alice
//	fmt.Println(net.Connection(id).Bandwidth)
//
// Mobility is driven by calling HandoffPortable (or by replaying a
// mobility.Trace); the network predicts the next cell from profiles and
// advance-reserves bandwidth there, so handoffs keep their guaranteed
// minimum QoS without renegotiation.
package armnet

import (
	"io"

	"armnet/internal/core"
	"armnet/internal/dataplane"
	"armnet/internal/des"
	"armnet/internal/eventbus"
	"armnet/internal/faults"
	"armnet/internal/obs"
	"armnet/internal/overload"
	"armnet/internal/profile"
	"armnet/internal/qos"
	"armnet/internal/reserve"
	"armnet/internal/sched"
	"armnet/internal/signal"
	"armnet/internal/strategy"
	"armnet/internal/topology"
	"armnet/internal/wireless"
)

// Re-exported QoS vocabulary (see internal/qos for full documentation).
type (
	// Request is a connection's QoS requirement: bandwidth bounds, delay,
	// jitter, loss, and the (σ, ρ) traffic envelope.
	Request = qos.Request
	// Bounds is the loose bandwidth bound [b_min, b_max].
	Bounds = qos.Bounds
	// TrafficSpec is the (σ, ρ) leaky-bucket envelope.
	TrafficSpec = qos.TrafficSpec
	// Class describes a workload connection type.
	Class = qos.Class
	// Mobility is the static/mobile portable classification.
	Mobility = qos.Mobility
)

// Mobility values.
const (
	Mobile = qos.Mobile
	Static = qos.Static
)

// Re-exported topology vocabulary.
type (
	// CellID names a cell.
	CellID = topology.CellID
	// NodeID names a backbone node.
	NodeID = topology.NodeID
	// CellClass is the office/corridor/lounge classification.
	CellClass = topology.Class
	// Cell is one pico-cell.
	Cell = topology.Cell
	// Universe is the set of all cells.
	Universe = topology.Universe
	// Environment is a universe plus its wired backbone.
	Environment = topology.Environment
	// BackboneOptions configures BuildBackbone for custom universes.
	BackboneOptions = topology.BackboneOptions
	// EnvironmentSpec is the JSON schema for custom environments.
	EnvironmentSpec = topology.EnvironmentSpec
)

// Cell classes.
const (
	ClassUnknown       = topology.ClassUnknown
	ClassOffice        = topology.ClassOffice
	ClassCorridor      = topology.ClassCorridor
	ClassMeetingRoom   = topology.ClassMeetingRoom
	ClassCafeteria     = topology.ClassCafeteria
	ClassLoungeDefault = topology.ClassLoungeDefault
)

// Scheduling disciplines for the admission buffer rows.
const (
	WFQ  = sched.DisciplineWFQ
	RCSP = sched.DisciplineRCSP
)

// Config parameterizes a Network; the zero value uses the paper's
// defaults (T_th = 300 s, B_dyn ∈ [5%, 20%], predictive reservations,
// adaptation on).
type Config = core.Config

// Strategy selection: Config.Allocator and Config.Admitter name the
// rate-allocation and admission-control strategies (empty selects the
// paper's defaults). Allocators and Admitters list the registered names.
var (
	Allocators = strategy.Allocators
	Admitters  = strategy.Admitters
)

// Default strategy names (the paper's own algorithms).
const (
	DefaultAllocator = strategy.DefaultAllocator
	DefaultAdmitter  = strategy.DefaultAdmitter
)

// ReservationMode selects the advance-reservation strategy of Config.Mode.
type ReservationMode = core.ReservationMode

// Reservation modes for Config.Mode.
const (
	ModePredictive = core.ModePredictive
	ModeBruteForce = core.ModeBruteForce
	ModeNone       = core.ModeNone
)

// Meeting is a booking-calendar entry for a meeting-room cell.
type Meeting = reserve.Meeting

// Connection is an admitted end-to-end connection.
type Connection = core.Connection

// Portable is a tracked mobile host.
type Portable = core.Portable

// Metrics exposes the network's counters and drop log. It is a built-in
// subscriber of the network's event bus.
type Metrics = core.Metrics

// Ctr identifies a counter in Metrics.Counter. Its String() is the
// stable report name ("new-requested", ...).
type Ctr = core.Ctr

// CounterSet is the typed counter tally of Metrics.Counter.
type CounterSet = core.CounterSet

// Counters in Metrics.Counter.
const (
	CtrNewRequested     = core.CtrNewRequested
	CtrNewAdmitted      = core.CtrNewAdmitted
	CtrNewBlocked       = core.CtrNewBlocked
	CtrHandoffTried     = core.CtrHandoffTried
	CtrHandoffOK        = core.CtrHandoffOK
	CtrHandoffDropped   = core.CtrHandoffDropped
	CtrAdaptUpdates     = core.CtrAdaptUpdates
	CtrAdvanceResv      = core.CtrAdvanceResv
	CtrPoolClaims       = core.CtrPoolClaims
	CtrFaultsInjected   = core.CtrFaultsInjected
	CtrRetransmits      = core.CtrRetransmits
	CtrReclaimedHolds   = core.CtrReclaimedHolds
	CtrReadvertises     = core.CtrReadvertises
	CtrShedSetups       = core.CtrShedSetups
	CtrDegradeCascades  = core.CtrDegradeCascades
	CtrBreakerTrips     = core.CtrBreakerTrips
	CtrBreakerFastFails = core.CtrBreakerFastFails
)

// FaultPlan is a deterministic fault-injection schedule for Config.Faults:
// probabilistic control-message faults (drop/dup/delay) composed with
// timed component faults (link and cell outages, zone profile-server
// crashes, wireless blackouts, signaling-plane crashes). A nil plan
// injects nothing and leaves every run byte-identical to an uninjected
// one.
type FaultPlan = faults.Plan

// FaultAuditor checks a chaos run's recovery invariants: ledger
// conservation, no leaked signaling holds, no orphaned allocations, and
// maxmin re-convergence.
type FaultAuditor = faults.Auditor

// SignalOptions configures the signaling plane (Config.Signal): setup
// deadlines, bounded retransmission, and the crash-recovery hold lease.
type SignalOptions = signal.Options

// ParseFaultPlan reads a simulation fault plan in the line-oriented
// grammar of DESIGN.md §10: `drop|dup|delay <proto> <prob> [<seconds>]`
// rules and `at <time> <action> [<target>] [for <duration>]` component
// faults. Directives only the live wire plane executes are errors.
var ParseFaultPlan = faults.ParsePlan

// OverloadPolicy parameterizes the staged overload-control subsystem
// (Config.Overload): per-cell utilization detection with hysteresis,
// degrade cascades, priority load shedding, a setup token bucket, and
// the signaling circuit breaker. A nil policy disarms the subsystem
// entirely — no timers, no subscriptions, byte-identical traces.
type OverloadPolicy = overload.Policy

// OverloadAuditor checks the degrade-before-drop invariant: no handoff
// may be dropped while a degradable connection on the contended link
// still holds bandwidth above its minimum.
type OverloadAuditor = overload.Auditor

// ErrBusy marks setups fast-failed by an open signaling circuit
// breaker; callers should back off rather than retry immediately.
var ErrBusy = overload.ErrBusy

// ParseOverloadPolicy reads the line-oriented overload-policy grammar
// (omitted directives keep their defaults):
//
//	sample <seconds>                 # utilization sampling period
//	ewma <alpha>                     # utilization smoothing weight
//	degrade <high> <low>             # stage 1 enter/leave watermarks
//	shed-static <high> <low>         # stage 2
//	shed-mobile <high> <low>         # stage 3
//	queue <depth>                    # setup-queue escalation threshold
//	bucket <rate> <burst>            # setup token bucket during overload
//	breaker <failrate> <window> <cooldown> <probes>
//	breaker-retrans <count>          # retransmission-pressure trip (0 = off)
var ParseOverloadPolicy = overload.ParsePolicy

// DefaultOverloadPolicy returns the default overload policy; adjust
// fields and assign to Config.Overload to arm the subsystem.
var DefaultOverloadPolicy = overload.Default

// Topology builders.
var (
	// BuildFigure4 reconstructs the paper's Figure 4 office environment.
	BuildFigure4 = topology.BuildFigure4
	// BuildCampus builds a two-zone mixed office/corridor/lounge campus.
	BuildCampus = topology.BuildCampus
	// BuildMeetingWing builds the §7.1 classroom wing.
	BuildMeetingWing = topology.BuildMeetingWing
	// BuildTwoCell builds the §6.3 two-cell system.
	BuildTwoCell = topology.BuildTwoCell
	// BuildCorridor builds a linear corridor chain.
	BuildCorridor = topology.BuildCorridor
	// NewUniverse starts an empty cell universe for custom topologies.
	NewUniverse = topology.NewUniverse
	// AirNode names the synthetic air-interface node of a cell; the
	// wireless hop is the link base-station → AirNode(cell).
	AirNode = topology.AirNode
	// BuildBackbone wires a backbone for a custom universe.
	BuildBackbone = topology.BuildBackbone
	// EnvironmentFromJSON builds an environment from a JSON spec.
	EnvironmentFromJSON = topology.EnvironmentFromJSON
	// BuildFromSpec builds an environment from a parsed spec.
	BuildFromSpec = topology.BuildFromSpec
	// SpecFromEnvironment exports an environment back to its spec.
	SpecFromEnvironment = topology.SpecFromEnvironment
)

// Network is the integrated resource manager running on its own
// discrete-event simulator. All methods execute at the simulator's
// current time; interleave them with Run/RunUntil to advance time.
type Network struct {
	sim *des.Simulator
	mgr *core.Manager
}

// NewNetwork builds a network over an environment.
func NewNetwork(env *Environment, cfg Config) (*Network, error) {
	sim := des.New()
	mgr, err := core.NewManager(sim, env, cfg)
	if err != nil {
		return nil, err
	}
	return &Network{sim: sim, mgr: mgr}, nil
}

// Now returns the current simulated time in seconds.
func (n *Network) Now() float64 { return n.sim.Now() }

// RunUntil advances simulated time to the horizon, executing all pending
// control-plane work (adaptation rounds, policy evaluations, timers).
func (n *Network) RunUntil(horizon float64) error { return n.sim.RunUntil(horizon) }

// Schedule runs fn at the given simulated time — the hook for driving
// scenario events (mobility, capacity changes, workload).
func (n *Network) Schedule(at float64, fn func()) { n.sim.Post(at, fn) }

// PlacePortable introduces a portable in a cell.
func (n *Network) PlacePortable(id string, cell CellID) error {
	return n.mgr.PlacePortable(id, cell)
}

// RemovePortable removes a portable and closes its connections.
func (n *Network) RemovePortable(id string) { n.mgr.RemovePortable(id) }

// OpenConnection admits a new connection with the given QoS request and
// returns its ID, or an error wrapping core.ErrRejected on admission
// failure.
func (n *Network) OpenConnection(portable string, req Request) (string, error) {
	return n.mgr.OpenConnection(portable, req)
}

// OpenConnectionAsync opens a connection through the signaling plane:
// the setup travels the route as timed control messages (with tentative
// holds that serialize concurrent setups), and done fires at the
// simulated completion time. Use OpenConnection for the instantaneous
// variant.
func (n *Network) OpenConnectionAsync(portable string, req Request, done func(connID string, err error)) error {
	return n.mgr.OpenConnectionAsync(portable, req, done)
}

// CloseConnection releases a connection.
func (n *Network) CloseConnection(id string) error { return n.mgr.CloseConnection(id) }

// HandoffPortable moves a portable into a neighboring cell, re-admitting
// its connections there (dropping those that no longer fit).
func (n *Network) HandoffPortable(id string, to CellID) error {
	return n.mgr.HandoffPortable(id, to)
}

// RegisterMeeting attaches a calendar entry to a meeting-room cell.
func (n *Network) RegisterMeeting(room CellID, m Meeting) error {
	return n.mgr.RegisterMeeting(room, m)
}

// Connection returns a tracked connection, or nil.
func (n *Network) Connection(id string) *Connection { return n.mgr.Connection(id) }

// Portable returns a tracked portable, or nil.
func (n *Network) Portable(id string) *Portable { return n.mgr.Portable(id) }

// Metrics returns the live metrics.
func (n *Network) Metrics() *Metrics { return n.mgr.Met }

// Bus returns the network's control-plane event bus. Subscribe before
// running the simulation; subscribers must observe, not act (see the
// eventbus package documentation for the determinism rules).
func (n *Network) Bus() *EventBus { return n.mgr.Bus }

// Trace subscribes a JSONL recorder for every control-plane event and
// returns it; one line per event, stamped with simulated time and
// sequence number. Attach before running the simulation. Check
// EventRecorder.Err after the run for write failures.
func (n *Network) Trace(w io.Writer) *EventRecorder {
	return eventbus.AttachRecorder(n.mgr.Bus, w)
}

// OverloadAuditor subscribes a degrade-before-drop invariant checker to
// the network's bus and returns it. Attach before running; inspect
// Violations after.
func (n *Network) OverloadAuditor() *OverloadAuditor { return n.mgr.OverloadAuditor() }

// WatchBandwidth registers a per-connection bandwidth-change callback —
// the hook an adaptive application uses to switch encoding rates when the
// network adapts its allocation.
func (n *Network) WatchBandwidth(connID string, fn func(bandwidth float64)) error {
	return n.mgr.WatchBandwidth(connID, fn)
}

// Renegotiate performs application-initiated adaptation (§4.2): the
// connection is re-admitted with new bandwidth bounds; on rejection the
// old reservation is restored.
func (n *Network) Renegotiate(connID string, bounds Bounds) error {
	return n.mgr.Renegotiate(connID, bounds)
}

// AttachChannel gives a cell a time-varying effective capacity drawn from
// the given levels with the given mean dwell; every change triggers the
// eq. (2) adaptation path.
func (n *Network) AttachChannel(cell CellID, levels []float64, dwellMean float64) (*wireless.CapacityProcess, error) {
	return n.mgr.AttachChannel(cell, levels, dwellMean)
}

// LearnClasses runs the §6.4 learning process on cells whose class is
// unknown, returning those whose class was inferred from their observed
// handoff behaviour.
func (n *Network) LearnClasses() []CellID {
	return n.mgr.LearnClasses(profile.ClassifyOptions{})
}

// Manager exposes the underlying resource manager for advanced use
// (ledger inspection, predictor access).
func (n *Network) Manager() *core.Manager { return n.mgr }

// Dataplane is the packet-level data path: per-link WFQ/RCSP servers,
// hop-by-hop forwarding, wireless loss, and per-flow delay/loss stats.
type Dataplane = dataplane.Dataplane

// DataplaneOptions configures NewDataplane.
type DataplaneOptions = dataplane.Options

// NewDataplane attaches a packet-level data path to the network's
// simulator and backbone. Start a flow for an admitted connection with
// its granted bandwidth and declared (σ, ρ) envelope to measure actual
// end-to-end delay and loss against the admitted bounds. Flow
// start/stop milestones are published on the network's event bus.
func (n *Network) NewDataplane(opts DataplaneOptions) (*Dataplane, error) {
	if opts.Bus == nil {
		opts.Bus = n.mgr.Bus
	}
	return dataplane.New(n.sim, n.mgr.Env.Backbone, opts)
}

// Observability vocabulary (see internal/obs for full documentation).
type (
	// ObsOptions arms the observability layer via Config.Obs: a nil
	// pointer costs nothing; a non-nil one subscribes deterministic
	// sim-time instruments and the lifecycle span builder.
	ObsOptions = obs.Options
	// ObsSnapshot is a point-in-time export of every instrument,
	// renderable as Prometheus text or JSON and mergeable across
	// replications in replication order.
	ObsSnapshot = obs.Snapshot
	// ObsSummary is the paper-§7-style results digest derived from a
	// snapshot.
	ObsSummary = obs.Summary
	// ObsSpan is one exported lifecycle span (setup, handoff, degrade
	// interval, or the root connection lifecycle).
	ObsSpan = obs.Span
	// Observer is the armed observability layer of a network.
	Observer = obs.Observer
)

// MergeObsSnapshots folds per-replication snapshots in slice order into
// one; always pass them in replication order so the merged snapshot is
// identical at any worker count.
var MergeObsSnapshots = obs.MergeAll

// Observer returns the network's observability layer, or nil unless
// Config.Obs was set before NewNetwork. Call Observer().Finish(now) once
// after the run, then Snapshot() for the instrument export.
func (n *Network) Observer() *Observer { return n.mgr.Obs }

// Event-stream vocabulary (see internal/eventbus for the full taxonomy).
type (
	// EventBus is the deterministic synchronous publish/subscribe hub
	// every control-plane layer publishes through.
	EventBus = eventbus.Bus
	// EventRecord is one stamped event: (Seq, Time, Event).
	EventRecord = eventbus.Record
	// EventRecorder streams every event as one JSON line (see
	// Network.Trace).
	EventRecorder = eventbus.Recorder
	// Event is the sealed typed-payload interface.
	Event = eventbus.Event
	// EventKind discriminates event payload types.
	EventKind = eventbus.Kind
)
