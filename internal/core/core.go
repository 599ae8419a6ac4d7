// Package core integrates the paper's resource-management algorithms into
// the single framework of its Figure 1: admission control with QoS bounds
// (Table 2), static/mobile portable classification (§3.4.2), profile-based
// next-cell prediction (§6), advance reservation with per-class policies,
// the B_dyn pool, multicast route pre-setup on the wired backbone (§4),
// and maxmin bandwidth adaptation for static portables (§5.3).
//
// The Manager is the public heart of the library: place portables, open
// connections with QoS bounds, feed it mobility events, and it runs the
// whole control loop on the discrete-event simulator.
package core

import (
	"errors"
	"fmt"
	"slices"

	"armnet/internal/adapt"
	"armnet/internal/admission"
	"armnet/internal/clock"
	"armnet/internal/des"
	"armnet/internal/eventbus"
	"armnet/internal/faults"
	"armnet/internal/maxmin"
	"armnet/internal/obs"
	"armnet/internal/overload"
	"armnet/internal/predict"
	"armnet/internal/profile"
	"armnet/internal/qos"
	"armnet/internal/randx"
	"armnet/internal/reserve"
	"armnet/internal/signal"
	"armnet/internal/sortx"
	"armnet/internal/strategy"
	"armnet/internal/topology"
)

// ReservationMode selects the advance-reservation strategy — the knob the
// paper's §7.1 comparison turns.
type ReservationMode int

const (
	// ModePredictive is the paper's algorithm: profile-based next-cell
	// prediction plus per-class policies.
	ModePredictive ReservationMode = iota
	// ModeBruteForce reserves in every neighboring cell of a mobile
	// portable (the conservative baseline of [7]).
	ModeBruteForce
	// ModeNone performs no advance reservation (handoffs compete as
	// unpredicted pool claims).
	ModeNone
)

// String implements fmt.Stringer.
func (m ReservationMode) String() string {
	switch m {
	case ModePredictive:
		return "predictive"
	case ModeBruteForce:
		return "brute-force"
	case ModeNone:
		return "none"
	default:
		return fmt.Sprintf("ReservationMode(%d)", int(m))
	}
}

// Config parameterizes a Manager.
type Config struct {
	// Seed drives every random draw. Every int64 is a valid, distinct
	// seed — including 0, the zero-value default.
	Seed int64
	// Tth is the static/mobile threshold in seconds (default 300).
	Tth float64
	// poolMin and poolMax bound the B_dyn fraction (defaults 0.05/0.20).
	poolMin, poolMax float64
	// Mode selects the advance reservation strategy.
	Mode ReservationMode
	// Allocator names the rate allocator's switch rule ("maxmin",
	// "erica", "logweight"); empty selects the paper's maxmin rule.
	Allocator string
	// Admitter names the admission strategy ("table2",
	// "measured"); empty selects the paper's Table 2 test.
	Admitter string
	// Proto tunes the rate-allocation protocol (the knobs are shared by
	// every allocator: hop delay, δ threshold, fault delivery,
	// retransmission, periodic repair).
	Proto maxmin.ProtocolOptions
	// Signal tunes the signaling plane (timeout scaling, retransmission,
	// hold leases). The manager forces its Bus; under a fault plan it
	// also forces the delivery hook.
	Signal signal.Options
	// Faults, when non-nil and non-empty, arms deterministic fault
	// injection: the plan's message rules filter signaling and
	// adaptation control packets, and its timed component faults are
	// scheduled at construction time (so build the manager at simulated
	// time zero). A nil or empty plan costs nothing — no RNG draws, no
	// extra events.
	Faults *faults.Plan
	// Overload, when non-nil, arms the staged overload-control
	// subsystem (degrade cascades, priority load shedding, signaling
	// circuit breaker) over every cell's wireless downlink. A nil
	// policy costs nothing — no timers, no events, byte-identical
	// traces.
	Overload *overload.Policy
	// Obs, when non-nil, arms the deterministic observability layer:
	// lifecycle span reconstruction and sim-time instruments, exported
	// as snapshots (Manager.Obs). Nil costs nothing — no subscription,
	// no samples, byte-identical traces; and because the observer never
	// publishes or draws randomness, enabling it leaves the event trace
	// byte-identical too.
	Obs *obs.Options
}

// policySlot is the lounge policy evaluation period, in seconds.
const policySlot = 60

func (c Config) withDefaults() Config {
	if c.Tth <= 0 {
		c.Tth = 300
	}
	if c.poolMin <= 0 {
		c.poolMin = 0.05
	}
	if c.poolMax <= 0 {
		c.poolMax = 0.20
	}
	return c
}

// Portable is the manager's view of one mobile host.
type Portable struct {
	ID   string
	Cell topology.CellID
	Prev topology.CellID
	// Mobility is the current static/mobile classification.
	Mobility qos.Mobility

	arrivedAt   float64
	staticTimer *des.Event
	onStatic    func() // the static timer's callback, bound once
	bookSource  string // "portable:"+ID, its tag in the advance book
	// conns is kept in ID order: a handoff re-admits the portable's
	// connections in it, and refreshAdvance sums their b_min in it.
	conns sortx.IDs[string]
	// reservedCells are the cells currently holding advance reservations
	// for this portable.
	reservedCells map[topology.CellID]float64
}

// connIDs returns a copy of the portable's connection IDs, sorted.
func (p *Portable) connIDs() []string { return slices.Clone(p.conns) }

// Connection is one admitted end-to-end connection. Connections are
// modeled downlink (wired host → portable), the direction that stresses
// the cell in the paper's workloads.
type Connection struct {
	ID       string
	Portable string
	Req      qos.Request
	Host     topology.NodeID
	Route    topology.Route
	// Bandwidth is the current allocation b_j.
	Bandwidth float64
	// Multicast is the wired pre-setup tree toward neighbor base
	// stations (nil when setup failed — never fatal, per §4), shared
	// read-only by the connections from one host in one cell.
	Multicast *topology.MulticastTree
	mcast     *mcastPlan        // the plan Multicast came from
	legDsts   []topology.NodeID // leg destinations reached so far
	legIDs    []string          // and their ledger IDs (legID)
}

// Manager is the integrated resource manager.
type Manager struct {
	Sim *des.Simulator
	Env *topology.Environment
	Cfg Config
	Rng *randx.Rand
	// Adm is the admission strategy every setup, handoff, and
	// renegotiation goes through (Table 2 by default, Config.Admitter
	// selects rivals).
	Adm admission.Admitter
	// Bus carries every control-plane decision as a typed event; Met,
	// Latency, and the bandwidth watchers are its built-in subscribers.
	Bus  *eventbus.Bus
	Adpt *adapt.Manager
	Pred *predict.Predictor
	Met  *Metrics
	// Latency tracks handoff signaling latency, split by whether the
	// handoff was predicted (advance-reserved) or not.
	Latency latencyStats
	// Inj is the armed fault injector; nil without a fault plan.
	Inj *faults.Injector
	// Ovl is the armed overload controller; nil without a policy.
	Ovl *overload.Controller
	// Obs is the armed observability layer; nil without Config.Obs.
	Obs *obs.Observer

	portables map[string]*Portable
	conns     map[string]*Connection
	nextConn  int
	// advance bookkeeping: per wireless link, per source tag, bits/s.
	book map[topology.LinkID]*advanceBook
	// meetings per room cell.
	meetings map[topology.CellID][]*meetingState
	// sigPlane is the lazily built signaling plane (SignalPlane).
	sigPlane *signal.Plane
	// rateWatchers holds per-connection bandwidth-change callbacks (the
	// application runtime-support hook of §4 / [14]).
	rateWatchers map[string]func(bandwidth float64)
	// channels registers attached wireless capacity processes per cell,
	// so blackout faults can reach them.
	channels map[topology.CellID]*capacityProcess
	// lastPred holds each portable's outcome-pending prediction; nil
	// unless observability is armed.
	lastPred map[string]predNote
	// ledger is the shared reservation ledger every strategy books into.
	ledger *admission.Ledger
	// staticMax is adjustPools' scratch: per cell, the largest
	// allocation held by a static portable there.
	staticMax map[topology.CellID]float64
	static    map[*Portable]struct{} // the static portables (setMobility)
	// handoffConns is HandoffPortable's copy of the portable's
	// connection IDs, which its loop may drop from.
	handoffConns []string
	cells        map[topology.CellID]*cellGeo // geometry.go
	// mc sets up and releases multicast legs: the Manager itself, from
	// its plans, or the per-call reference in the lockstep oracle test.
	mc interface {
		setupMulticast(c *Connection, cell topology.CellID)
		releaseMulticast(c *Connection)
	}
}

type meetingState struct {
	policy  *reserve.MeetingPolicy
	arrived map[string]bool
	left    map[string]bool
}

// Errors.
var (
	errUnknownPortable = errors.New("core: unknown portable")
	errUnknownCell     = errors.New("core: unknown cell")
	ErrRejected        = errors.New("core: connection rejected")
	errUnknownConn     = errors.New("core: unknown connection")
)

// NewManager wires the full system over an environment.
func NewManager(sim *des.Simulator, env *topology.Environment, cfg Config) (*Manager, error) {
	if sim == nil || env == nil {
		return nil, fmt.Errorf("core: nil simulator or environment")
	}
	if len(env.Hosts) == 0 {
		return nil, fmt.Errorf("core: environment has no wired hosts")
	}
	cfg = cfg.withDefaults()
	lg := admission.NewLedger(env.Backbone)
	bus := eventbus.New(sim)
	m := &Manager{
		Sim:          sim,
		Env:          env,
		Cfg:          cfg,
		Rng:          randx.New(cfg.Seed),
		Bus:          bus,
		ledger:       lg,
		Pred:         predict.New(env.Universe, profile.ServerOptions{}),
		Met:          newMetrics(bus),
		portables:    make(map[string]*Portable),
		conns:        make(map[string]*Connection),
		book:         make(map[topology.LinkID]*advanceBook),
		meetings:     make(map[topology.CellID][]*meetingState),
		rateWatchers: make(map[string]func(float64)),
		staticMax:    make(map[topology.CellID]float64),
		static:       make(map[*Portable]struct{}),
		cells:        make(map[topology.CellID]*cellGeo),
		channels:     make(map[topology.CellID]*capacityProcess),
	}
	m.mc = m
	adm, err := strategy.NewAdmitter(cfg.Admitter, lg, bus)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	m.Adm = adm
	rule, err := strategy.Rule(cfg.Allocator)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	// Fault injection is wired before the protocol stacks are built so
	// their delivery hooks are in place from the first control message.
	if cfg.Faults != nil && !cfg.Faults.Empty() {
		// A rule filtered to a link no message crosses would never fire:
		// refuse it rather than run a chaos scenario without its faults.
		for _, r := range cfg.Faults.Rules {
			if r.Link != "" && lg.Link(topology.LinkID(r.Link)) == nil {
				return nil, fmt.Errorf("core: fault plan: %s %s rule on unknown link %q", r.Action, r.Proto, r.Link)
			}
		}
		m.Inj = faults.NewInjector(cfg.Faults, cfg.Seed, bus)
		m.Cfg.Proto.Deliver = m.Inj.DeliverMaxmin
		m.Cfg.Signal.Deliver = m.Inj.DeliverSignal
	}
	// Built-in subscribers beyond Metrics: the handoff-latency
	// distributions and the per-connection bandwidth watchers. They are
	// registered after Metrics so a watcher callback observes counters
	// already updated for the event that triggered it (the ordering the
	// pre-bus implementation had).
	eventbus.On(bus, func(ev eventbus.HandoffLatency) {
		if ev.Predicted {
			m.Latency.Predicted.Observe(ev.Latency)
		} else {
			m.Latency.Unpredicted.Observe(ev.Latency)
		}
	})
	eventbus.On(bus, func(ev eventbus.BandwidthChange) {
		if w := m.rateWatchers[ev.Conn]; w != nil {
			w(ev.Bandwidth)
		}
	})
	// The protocol is built exactly here, so its construction-time
	// timer (the re-ADVERTISE ticker) keeps its position in the event
	// schedule and traces stay byte-identical.
	m.Adpt, err = adapt.NewManagerWith(sim, lg, m.Cfg.Proto, rule)
	if err != nil {
		return nil, err
	}
	m.Adpt.Alloc.Bus = bus
	m.Adpt.OnRate = func(connID string, bw float64) {
		if c, ok := m.conns[connID]; ok {
			c.Bandwidth = bw
			eventbus.Pub(bus, eventbus.BandwidthChange{Conn: connID, Bandwidth: bw})
		}
	}
	// Initialize B_dyn pools at the floor fraction on every wireless
	// downlink; the pool rule of §5.3 adjusts them as load appears.
	for _, c := range env.Universe.Cells() {
		if ls := lg.Link(m.downlink(c.ID)); ls != nil {
			ls.PoolFraction = cfg.poolMin
		}
	}
	// Periodic lounge-policy evaluation.
	sim.Every(policySlot, m.evaluatePolicies)
	// Overload control (overload.go): armed only under a policy, so the
	// nil default adds no timers and no events.
	if cfg.Overload != nil {
		if err := cfg.Overload.Validate(); err != nil {
			return nil, fmt.Errorf("core: %w", err)
		}
		m.armOverload(*cfg.Overload)
	}
	// Observability (obs.go): armed after every publishing layer and
	// built-in subscriber is wired, so the observer is the last
	// subscriber and sees the same stream the trace recorder does.
	if cfg.Obs != nil {
		m.armObs(*cfg.Obs)
	}
	// Schedule the plan's timed component faults, executed through the
	// manager's own Driver implementation (faultdriver.go).
	if m.Inj != nil {
		m.Inj.Arm(clock.Sim(sim), m)
	}
	return m, nil
}

// Portable returns the tracked portable, or nil.
func (m *Manager) Portable(id string) *Portable { return m.portables[id] }

// Connection returns the tracked connection, or nil.
func (m *Manager) Connection(id string) *Connection { return m.conns[id] }

// Ledger exposes the underlying reservation ledger (read-mostly).
func (m *Manager) Ledger() *admission.Ledger { return m.ledger }

// WatchBandwidth registers a callback invoked whenever the network adapts
// the connection's bandwidth — the hook an adaptive application (e.g. a
// layered video codec) uses to switch encoding rates (§3.2, [14]).
// A nil callback removes the watcher. Unknown connections error.
func (m *Manager) WatchBandwidth(connID string, fn func(bandwidth float64)) error {
	if _, ok := m.conns[connID]; !ok {
		return fmt.Errorf("%w: %s", errUnknownConn, connID)
	}
	if fn == nil {
		delete(m.rateWatchers, connID)
		return nil
	}
	m.rateWatchers[connID] = fn
	return nil
}

// PlacePortable introduces a portable in a cell (initial placement, not a
// handoff). The portable starts mobile; the static timer is armed.
func (m *Manager) PlacePortable(id string, cell topology.CellID) error {
	if m.geo(cell) == nil {
		return fmt.Errorf("%w: %s", errUnknownCell, cell)
	}
	if _, ok := m.portables[id]; ok {
		return fmt.Errorf("core: portable %s already placed", id)
	}
	p := &Portable{
		ID: id, Cell: cell, Mobility: qos.Mobile,
		arrivedAt:     m.Sim.Now(),
		bookSource:    "portable:" + id,
		reservedCells: make(map[topology.CellID]float64),
	}
	p.onStatic = func() { p.staticTimer = nil; m.becomeStatic(p) }
	m.portables[id] = p
	m.armStaticTimer(p)
	m.noteMeetingArrival(p.ID, cell)
	return nil
}

// RemovePortable tears down a portable and all its connections.
func (m *Manager) RemovePortable(id string) {
	p, ok := m.portables[id]
	if !ok {
		return
	}
	for _, cid := range p.connIDs() {
		_ = m.CloseConnection(cid)
	}
	m.clearAdvance(p)
	if p.staticTimer != nil {
		p.staticTimer.Cancel()
	}
	m.setMobility(p, qos.Mobile) // out of the static index
	delete(m.portables, id)
}

// armStaticTimer (re)arms the T_th timer that flips the portable to
// static if it stays put.
func (m *Manager) armStaticTimer(p *Portable) {
	if p.staticTimer != nil {
		p.staticTimer.Cancel()
	}
	p.staticTimer = m.Sim.After(m.Cfg.Tth, p.onStatic)
}

// setMobility is the one place a portable's classification changes, so
// the static index holds exactly the static portables adjustPools reads.
func (m *Manager) setMobility(p *Portable, mob qos.Mobility) {
	p.Mobility = mob
	delete(m.static, p)
	if mob == qos.Static {
		m.static[p] = struct{}{}
	}
}

// becomeStatic applies the §3.4.2 static rules: drop advance
// reservations elsewhere, upgrade connections toward b_max.
func (m *Manager) becomeStatic(p *Portable) {
	m.setMobility(p, qos.Static)
	m.clearAdvance(p)
	// Sorted: SetMobility(Static) kicks adaptation sessions, and the
	// session start order is observable in the event trace.
	for _, cid := range p.connIDs() {
		_ = m.Adpt.SetMobility(cid, qos.Static)
	}
	m.adjustPools(p.Cell)
}

// becomeMobile applies the mobile rules on movement.
func (m *Manager) becomeMobile(p *Portable) {
	if p.Mobility == qos.Mobile {
		return
	}
	m.setMobility(p, qos.Mobile)
	for _, cid := range p.connIDs() {
		_ = m.Adpt.SetMobility(cid, qos.Mobile)
	}
}
