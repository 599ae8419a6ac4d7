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
	"fmt"

	"armnet/internal/admission"
	"armnet/internal/clock"
	"armnet/internal/des"
	"armnet/internal/maxmin"
	"armnet/internal/qos"
	"armnet/internal/topology"
)

// Conn is one connection's adaptation record. Open makes it and the
// connection's holder keeps it: a handoff, a renegotiation, a mobility
// flip, a degrade and the close all hand the record back to the
// Manager, so nothing after Open finds the connection by its ID. A
// record is owned: after Close the manager recycles it, and its holder
// must not touch it again.
type Conn struct {
	id     string
	route  topology.Route
	bounds qos.Bounds
	// static is the connection's mobility: a static connection is in the
	// allocation protocol unless degraded, a mobile one is held at b_min.
	static bool
	// degraded caps the connection at b_min: it is out of the allocation
	// protocol until Restore lifts the cap (overload degrade cascades).
	degraded bool
}

// Manager owns the adaptation state.
type Manager struct {
	Ledger *admission.Ledger
	// Alloc is the rate allocator: the ADVERTISE/UPDATE protocol under
	// the switch rule the manager was built with (the paper's by
	// default).
	Alloc *maxmin.Protocol

	// conns is every open record by connection ID, for the protocol's
	// UPDATEs and the ID-keyed calls; a record stays in it from Open to
	// Close, whatever route it is on.
	conns map[string]*Conn
	// links is the ledger's link states by topology.Link.Index, so a
	// route reaches them without hashing its link IDs; the protocol
	// knows link links[i] by the index i too.
	links []*admission.LinkState
	// spare is the record Close last freed, for the next Open.
	spare *Conn
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
		Ledger: lg,
		Alloc:  maxmin.NewProtocolWith(clock.Sim(sim), opts, rule),
		conns:  make(map[string]*Conn),
	}
	// Links is a fresh copy of the ledger's states in ID order. Put each
	// at its Link.Index, a permutation of 0..n-1 (each swap settles one
	// state for good), then add them to the protocol in that order: it
	// indexes links as they are added, so a link's protocol index is its
	// Link.Index too.
	m.links = lg.Links()
	for i := range m.links {
		for j := m.links[i].Link.Index; j != i; j = m.links[i].Link.Index {
			m.links[i], m.links[j] = m.links[j], m.links[i]
		}
	}
	for _, ls := range m.links {
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

// Open tracks a connection after admission and returns its record: the
// connection joins route as Join says.
func (m *Manager) Open(connID string, route topology.Route, bounds qos.Bounds, mob qos.Mobility) (*Conn, error) {
	if _, ok := m.conns[connID]; ok {
		return nil, fmt.Errorf("adapt: duplicate connection %s", connID)
	}
	c := m.spare
	if c == nil {
		c = new(Conn)
	}
	m.spare = nil
	*c = Conn{id: connID}
	m.conns[connID] = c
	if err := m.Join(c, route, bounds, mob); err != nil {
		delete(m.conns, connID)
		m.spare = c
		return nil, err
	}
	return c, nil
}

// Register is Open for a caller that keeps the connection's ID, not its
// record; Unregister closes the record by that ID.
func (m *Manager) Register(connID string, route topology.Route, bounds qos.Bounds, mob qos.Mobility) error {
	_, err := m.Open(connID, route, bounds, mob)
	return err
}

// Unregister closes the named connection's record, if it has one.
func (m *Manager) Unregister(connID string) {
	if c, ok := m.conns[connID]; ok {
		m.Close(c)
	}
}

// Join puts record c on route with bounds and mobility mob: where a
// connection is admitted, and after Leave where a handoff re-admits it on
// its new path or a renegotiation changes its bounds. A static
// connection joins the rate-allocation protocol with demand b_max -
// b_min; a mobile one is held at b_min and only tracked for mobility
// flips. Joining also resyncs the excess capacity of the route's links.
// A Join that fails leaves the record on no route.
func (m *Manager) Join(c *Conn, route topology.Route, bounds qos.Bounds, mob qos.Mobility) error {
	if err := bounds.Validate(); err != nil {
		c.route = topology.Route{}
		return err
	}
	c.route, c.bounds, c.static, c.degraded = route, bounds, mob == qos.Static, false
	if c.static {
		if err := m.addToProtocol(c); err != nil {
			c.route = topology.Route{}
			return err
		}
	}
	m.SyncRoute(route)
	if c.static {
		m.Alloc.Kick(c.id)
	}
	return nil
}

func (m *Manager) addToProtocol(c *Conn) error {
	path := make([]string, 0, len(c.route.Links))
	for _, l := range c.route.Links {
		path = append(path, string(l.ID))
	}
	return m.Alloc.AddConn(maxmin.Conn{ID: c.id, Path: path, Demand: c.bounds.Width()})
}

// Leave takes record c off its route (after release from the ledger),
// for a Join or a Close to follow: a static connection leaves the
// protocol, and the route's links are resynced so freed excess is
// re-advertised. A mobile connection is in no protocol session, so its
// Leave touches only the links.
func (m *Manager) Leave(c *Conn) {
	if c.static && !c.degraded {
		m.Alloc.RemoveConn(c.id)
	}
	m.SyncRoute(c.route)
}

// Close drops the connection for good: its record is forgotten, then
// leaves its route, and goes back to the manager for the next Open.
func (m *Manager) Close(c *Conn) {
	delete(m.conns, c.id)
	m.Leave(c)
	*c = Conn{}
	m.spare = c
}

// SetMobility flips a connection between static and mobile. Mobile
// connections fall back to b_min immediately (the paper keeps mobile
// portables at their pre-negotiated minimum).
func (m *Manager) SetMobility(c *Conn, mob qos.Mobility) error {
	if c.static == (mob == qos.Static) {
		return nil
	}
	c.static = mob == qos.Static
	if !c.static {
		// A mobile connection is pinned at b_min anyway; the degrade cap
		// is moot and must not survive a later flip back to static.
		c.degraded = false
		m.Alloc.RemoveConn(c.id)
		for _, l := range c.route.Links {
			if err := m.Ledger.SetAllocation(c.id, l.ID, c.bounds.Min); err != nil {
				return err
			}
		}
		if m.OnRate != nil {
			m.OnRate(c.id, c.bounds.Min)
		}
		m.SyncRoute(c.route)
		return nil
	}
	if err := m.addToProtocol(c); err != nil {
		return err
	}
	m.SyncRoute(c.route)
	m.Alloc.Kick(c.id)
	return nil
}

// Degrade caps an adaptable static connection at its guaranteed minimum:
// it leaves the allocation protocol, its allocation drops to b_min on
// every link of its route, and the freed excess is re-advertised to the
// remaining sessions. It reports whether the connection was newly
// degraded; mobile, already-degraded, and zero-width connections are
// left alone.
func (m *Manager) Degrade(c *Conn) bool {
	if !c.static || c.degraded || c.bounds.Width() == 0 {
		return false
	}
	c.degraded = true
	m.Alloc.RemoveConn(c.id)
	for _, l := range c.route.Links {
		// The allocation may race a release; ignore missing allocations.
		_ = m.Ledger.SetAllocation(c.id, l.ID, c.bounds.Min)
	}
	if m.OnRate != nil {
		m.OnRate(c.id, c.bounds.Min)
	}
	m.SyncRoute(c.route)
	return true
}

// Restore lifts a degrade cap: the connection rejoins the allocation
// protocol and competes for excess again. It reports whether a cap was
// actually lifted.
func (m *Manager) Restore(c *Conn) bool {
	if !c.degraded {
		return false
	}
	c.degraded = false
	if !c.static {
		return true
	}
	if err := m.addToProtocol(c); err != nil {
		c.degraded = true
		return false
	}
	m.SyncRoute(c.route)
	m.Alloc.Kick(c.id)
	return true
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
	return m.sync(ls)
}

// sync is the one place a ledger link's excess reaches the protocol,
// which knows the link by its Link.Index.
func (m *Manager) sync(ls *admission.LinkState) error {
	_, err := m.Alloc.TriggerCapacityChange(ls.Link.Index, clampNonNeg(ls.ExcessAvailable()))
	return err
}

// SyncRoute syncs every link of a route. A link is reached by its Index
// and checked against the state found there, so a link of another
// backbone is skipped, as SyncLink refuses an unknown ID.
func (m *Manager) SyncRoute(r topology.Route) {
	for _, l := range r.Links {
		if uint(l.Index) < uint(len(m.links)) && m.links[l.Index].Link == l {
			// The link is the ledger's, so the protocol knows it too.
			_ = m.sync(m.links[l.Index])
		}
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
	c, ok := m.conns[connID]
	if !ok {
		return
	}
	// An UPDATE already in flight when Degrade, Leave or a flip to mobile
	// removed the session must not raise the allocation: a degraded or
	// mobile connection is held at b_min.
	if !c.static || c.degraded {
		return
	}
	bw := c.bounds.Clamp(c.bounds.Min + rate)
	for _, l := range c.route.Links {
		// The allocation may race a release; ignore missing allocations.
		_ = m.Ledger.SetAllocation(connID, l.ID, bw)
	}
	if m.OnRate != nil {
		m.OnRate(connID, bw)
	}
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
