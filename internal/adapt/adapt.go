// Package adapt implements the paper's resource adaptation layer (§5.3):
// it connects the distributed ADVERTISE/UPDATE protocol of §5.3.1 to the
// admission ledger, enforcing the two policy rules the paper sets —
//
//  1. only connections of *static* portables are adapted (for a
//     frequently handing-off mobile the signaling overhead would swamp
//     the benefit), and
//  2. adaptation triggers follow eq. (2): any capacity decrease, or an
//     increase above the threshold δ when some connection is bottlenecked
//     on the link.
//
// The package also implements the B_dyn pool rule of §5.3: each cell's
// dynamically adjustable pool must be able to absorb at least one
// maximum-allocation static connection from its neighboring cells,
// clamped to the paper's 5%–20% band.
//
// The layer is rule-agnostic: a rival allocator (ERICA fair-share, log
// weights) is the same protocol under another maxmin.SwitchRule, so
// swapping it in changes nothing here.
package adapt

import (
	"errors"
	"fmt"

	"armnet/internal/admission"
	"armnet/internal/clock"
	"armnet/internal/des"
	"armnet/internal/maxmin"
	"armnet/internal/qos"
	"armnet/internal/topology"
)

// ErrUnknownConn is returned when operating on an unregistered connection.
var ErrUnknownConn = errors.New("adapt: unknown connection")

// connInfo tracks one adaptable connection.
type connInfo struct {
	route    topology.Route
	bounds   qos.Bounds
	mobility qos.Mobility
	// degraded caps the connection at b_min: it is out of the allocation
	// protocol until Restore lifts the cap (overload degrade cascades).
	degraded bool
}

// Manager owns the adaptation state.
type Manager struct {
	Sim    *des.Simulator
	Ledger *admission.Ledger
	// Alloc is the rate allocator: the ADVERTISE/UPDATE protocol under
	// the switch rule the manager was built with (the paper's by
	// default).
	Alloc *maxmin.Protocol

	conns map[string]*connInfo
	// OnRate observes committed rate changes (for tests and metrics).
	OnRate func(connID string, bandwidth float64)
}

// NewManager builds the adaptation layer over an existing ledger with
// the paper's switch rule. opts configures the ADVERTISE/UPDATE
// protocol.
func NewManager(sim *des.Simulator, lg *admission.Ledger, opts maxmin.ProtocolOptions) (*Manager, error) {
	return NewManagerWith(sim, lg, opts, maxmin.Paper)
}

// NewManagerWith is NewManager with every switch running rule. The
// protocol is built here, so a positive ReadvertisePeriod arms its
// repair ticker now; every ledger link is registered with its current
// excess capacity, and committed updates flow back into the ledger.
func NewManagerWith(sim *des.Simulator, lg *admission.Ledger, opts maxmin.ProtocolOptions, rule maxmin.SwitchRule) (*Manager, error) {
	if sim == nil || lg == nil {
		return nil, fmt.Errorf("adapt: nil simulator or ledger")
	}
	m := &Manager{
		Sim:    sim,
		Ledger: lg,
		Alloc:  maxmin.NewProtocolWith(clock.Sim(sim), opts, rule),
		conns:  make(map[string]*connInfo),
	}
	for _, ls := range lg.Links() {
		if err := m.Alloc.AddLink(string(ls.Link.ID), clampNonNeg(ls.ExcessAvailable())); err != nil {
			return nil, err
		}
	}
	m.Alloc.OnUpdate = m.applyUpdate
	return m, nil
}

// Maxmin returns the protocol when it runs the paper's rule, and nil
// under a rival's: a rival's rates are not WaterFill's, so callers
// needing the maxmin fixed point (the chaos auditor's WaterFill oracle)
// must tolerate the nil.
func (m *Manager) Maxmin() *maxmin.Protocol {
	if m.Alloc.Rule().Weight != nil {
		return nil
	}
	return m.Alloc
}

func clampNonNeg(v float64) float64 {
	if v < 0 {
		return 0
	}
	return v
}

// Register tracks a connection after admission. Static connections join
// the rate-allocation protocol with demand b_max - b_min; mobile ones are
// held at b_min and only tracked for mobility flips. Registration also
// resyncs the excess capacity of the route's links.
func (m *Manager) Register(connID string, route topology.Route, bounds qos.Bounds, mob qos.Mobility) error {
	if _, ok := m.conns[connID]; ok {
		return fmt.Errorf("adapt: duplicate connection %s", connID)
	}
	if err := bounds.Validate(); err != nil {
		return err
	}
	ci := &connInfo{route: route, bounds: bounds, mobility: mob}
	m.conns[connID] = ci
	if mob == qos.Static {
		if err := m.addToProtocol(connID, ci); err != nil {
			delete(m.conns, connID)
			return err
		}
	}
	m.SyncRoute(route)
	if mob == qos.Static {
		m.Alloc.Kick(connID)
	}
	return nil
}

func (m *Manager) addToProtocol(connID string, ci *connInfo) error {
	path := make([]string, 0, len(ci.route.Links))
	for _, l := range ci.route.Links {
		path = append(path, string(l.ID))
	}
	return m.Alloc.AddConn(maxmin.Conn{ID: connID, Path: path, Demand: ci.bounds.Width()})
}

// Unregister drops a connection (after release from the ledger) and
// resyncs its links so freed excess is re-advertised.
func (m *Manager) Unregister(connID string) {
	ci, ok := m.conns[connID]
	if !ok {
		return
	}
	m.Alloc.RemoveConn(connID)
	delete(m.conns, connID)
	m.SyncRoute(ci.route)
}

// SetMobility flips a connection between static and mobile. Mobile
// connections fall back to b_min immediately (the paper keeps mobile
// portables at their pre-negotiated minimum).
func (m *Manager) SetMobility(connID string, mob qos.Mobility) error {
	ci, ok := m.conns[connID]
	if !ok {
		return fmt.Errorf("%w: %s", ErrUnknownConn, connID)
	}
	if ci.mobility == mob {
		return nil
	}
	ci.mobility = mob
	if mob == qos.Mobile {
		// A mobile connection is pinned at b_min anyway; the degrade cap
		// is moot and must not survive a later flip back to static.
		ci.degraded = false
		m.Alloc.RemoveConn(connID)
		for _, l := range ci.route.Links {
			if err := m.Ledger.SetAllocation(connID, l.ID, ci.bounds.Min); err != nil {
				return err
			}
		}
		if m.OnRate != nil {
			m.OnRate(connID, ci.bounds.Min)
		}
		m.SyncRoute(ci.route)
		return nil
	}
	if err := m.addToProtocol(connID, ci); err != nil {
		return err
	}
	m.SyncRoute(ci.route)
	m.Alloc.Kick(connID)
	return nil
}

// Degrade caps an adaptable static connection at its guaranteed minimum:
// it leaves the allocation protocol, its allocation drops to b_min on
// every link of its route, and the freed excess is re-advertised to the
// remaining sessions. It reports whether the connection was newly
// degraded; unknown, mobile, already-degraded, and zero-width
// connections are left alone.
func (m *Manager) Degrade(connID string) bool {
	ci, ok := m.conns[connID]
	if !ok || ci.mobility != qos.Static || ci.degraded || ci.bounds.Width() == 0 {
		return false
	}
	ci.degraded = true
	m.Alloc.RemoveConn(connID)
	for _, l := range ci.route.Links {
		// The allocation may race a release; ignore missing allocations.
		_ = m.Ledger.SetAllocation(connID, l.ID, ci.bounds.Min)
	}
	if m.OnRate != nil {
		m.OnRate(connID, ci.bounds.Min)
	}
	m.SyncRoute(ci.route)
	return true
}

// Restore lifts a degrade cap: the connection rejoins the allocation
// protocol and competes for excess again. It reports whether a cap was
// actually lifted.
func (m *Manager) Restore(connID string) bool {
	ci, ok := m.conns[connID]
	if !ok || !ci.degraded {
		return false
	}
	ci.degraded = false
	if ci.mobility != qos.Static {
		return true
	}
	if err := m.addToProtocol(connID, ci); err != nil {
		ci.degraded = true
		return false
	}
	m.SyncRoute(ci.route)
	m.Alloc.Kick(connID)
	return true
}

// Degraded reports whether the connection is currently degrade-capped.
func (m *Manager) Degraded(connID string) bool {
	ci, ok := m.conns[connID]
	return ok && ci.degraded
}

// Degradable reports whether a degrade cascade could still reclaim
// bandwidth from the connection: a registered static connection with
// adaptable width that is not already capped.
func (m *Manager) Degradable(connID string) bool {
	ci, ok := m.conns[connID]
	return ok && ci.mobility == qos.Static && !ci.degraded && ci.bounds.Width() > 0
}

// SyncLink recomputes a link's excess capacity b'_av,l from the ledger
// and pushes it into the protocol, which applies the eq. (2) trigger
// rules (decreases always adapt; increases only above δ and only for the
// link's bottleneck set).
func (m *Manager) SyncLink(id topology.LinkID) error {
	ls := m.Ledger.Link(id)
	if ls == nil {
		return fmt.Errorf("adapt: unknown link %s", id)
	}
	_, err := m.Alloc.TriggerCapacityChange(string(id), clampNonNeg(ls.ExcessAvailable()))
	return err
}

// SyncRoute syncs every link of a route.
func (m *Manager) SyncRoute(r topology.Route) {
	for _, l := range r.Links {
		// Links are known by construction; ignore the impossible error.
		_ = m.SyncLink(l.ID)
	}
}

// CapacityChanged is the wireless-variation entry point: the ledger is
// updated to the new raw capacity and the protocol is triggered with the
// resulting excess.
func (m *Manager) CapacityChanged(id topology.LinkID, capacity float64) error {
	if err := m.Ledger.SetCapacity(id, capacity); err != nil {
		return err
	}
	return m.SyncLink(id)
}

// applyUpdate commits a protocol UPDATE: allocation = b_min + rate on
// every link of the connection's route.
func (m *Manager) applyUpdate(connID string, rate float64) {
	ci, ok := m.conns[connID]
	if !ok {
		return
	}
	// An UPDATE already in flight when Degrade removed the session must
	// not re-raise the allocation above the cap.
	if ci.degraded {
		return
	}
	bw := ci.bounds.Clamp(ci.bounds.Min + rate)
	for _, l := range ci.route.Links {
		// The allocation may race a release; ignore missing allocations.
		_ = m.Ledger.SetAllocation(connID, l.ID, bw)
	}
	if m.OnRate != nil {
		m.OnRate(connID, bw)
	}
}

// Allocation returns the connection's current bandwidth (b_min plus its
// adapted excess), or an error for unknown connections.
func (m *Manager) Allocation(connID string) (float64, error) {
	ci, ok := m.conns[connID]
	if !ok {
		return 0, fmt.Errorf("%w: %s", ErrUnknownConn, connID)
	}
	if len(ci.route.Links) == 0 {
		return ci.bounds.Min, nil
	}
	a, ok := m.Ledger.Link(ci.route.Links[0].ID).Alloc(connID)
	if !ok {
		return ci.bounds.Min, nil
	}
	return a.Cur, nil
}

// PoolFraction computes the B_dyn fraction for a cell (§5.3): the pool
// must absorb at least one maximum-allocation connection from a static
// portable residing in the neighboring cells, clamped to [minFrac,
// maxFrac] (the paper's 5%–20%). neighborMaxAlloc is the largest current
// allocation of any static connection in the neighborhood.
func PoolFraction(neighborMaxAlloc, capacity, minFrac, maxFrac float64) float64 {
	if capacity <= 0 {
		return minFrac
	}
	if minFrac < 0 {
		minFrac = 0
	}
	if maxFrac < minFrac {
		maxFrac = minFrac
	}
	f := neighborMaxAlloc / capacity
	if f < minFrac {
		return minFrac
	}
	if f > maxFrac {
		return maxFrac
	}
	return f
}
