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

// errUnknownConn is the reference's refusal of an unregistered connection.
var errUnknownConn = errors.New("adapt: unknown connection")

// refAdapt is the adaptation layer as it was before connections held a
// record: every call names the connection by its ID in a string map, a
// handoff is Unregister then Register, and a link reaches the protocol by
// its ID, turned into the protocol's index at this edge. The lockstep
// test holds Manager to it.
type refAdapt struct {
	Ledger *admission.Ledger
	Alloc  *maxmin.Protocol
	OnRate func(connID string, bandwidth float64)

	conns   map[string]*refConn
	linkIdx map[topology.LinkID]int // the protocol's index of each link
}

type refConn struct {
	route    topology.Route
	bounds   qos.Bounds
	mobility qos.Mobility
	degraded bool
}

func newRefAdapt(sim *des.Simulator, lg *admission.Ledger, opts maxmin.ProtocolOptions) (*refAdapt, error) {
	m := &refAdapt{
		Ledger:  lg,
		Alloc:   maxmin.NewProtocolOn(clock.Sim(sim), opts),
		conns:   make(map[string]*refConn),
		linkIdx: make(map[topology.LinkID]int),
	}
	for _, ls := range lg.Links() {
		if err := m.Alloc.AddLink(string(ls.Link.ID), clampNonNeg(ls.ExcessAvailable())); err != nil {
			return nil, err
		}
		m.linkIdx[ls.Link.ID] = len(m.linkIdx)
	}
	m.Alloc.OnUpdate = m.applyUpdate
	return m, nil
}

func (m *refAdapt) Register(connID string, route topology.Route, bounds qos.Bounds, mob qos.Mobility) error {
	if _, ok := m.conns[connID]; ok {
		return fmt.Errorf("adapt: duplicate connection %s", connID)
	}
	if err := bounds.Validate(); err != nil {
		return err
	}
	ci := &refConn{route: route, bounds: bounds, mobility: mob}
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

func (m *refAdapt) addToProtocol(connID string, ci *refConn) error {
	path := make([]string, 0, len(ci.route.Links))
	for _, l := range ci.route.Links {
		path = append(path, string(l.ID))
	}
	return m.Alloc.AddConn(maxmin.Conn{ID: connID, Path: path, Demand: ci.bounds.Width()})
}

func (m *refAdapt) Unregister(connID string) {
	ci, ok := m.conns[connID]
	if !ok {
		return
	}
	m.Alloc.RemoveConn(connID)
	delete(m.conns, connID)
	m.SyncRoute(ci.route)
}

func (m *refAdapt) SetMobility(connID string, mob qos.Mobility) error {
	ci, ok := m.conns[connID]
	if !ok {
		return fmt.Errorf("%w: %s", errUnknownConn, connID)
	}
	if ci.mobility == mob {
		return nil
	}
	ci.mobility = mob
	if mob == qos.Mobile {
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

func (m *refAdapt) Degrade(connID string) bool {
	ci, ok := m.conns[connID]
	if !ok || ci.mobility != qos.Static || ci.degraded || ci.bounds.Width() == 0 {
		return false
	}
	ci.degraded = true
	m.Alloc.RemoveConn(connID)
	for _, l := range ci.route.Links {
		_ = m.Ledger.SetAllocation(connID, l.ID, ci.bounds.Min)
	}
	if m.OnRate != nil {
		m.OnRate(connID, ci.bounds.Min)
	}
	m.SyncRoute(ci.route)
	return true
}

func (m *refAdapt) Restore(connID string) bool {
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

func (m *refAdapt) SyncRoute(r topology.Route) {
	for _, l := range r.Links {
		if ls := m.Ledger.Link(l.ID); ls != nil {
			_, _ = m.Alloc.TriggerCapacityChange(m.linkIdx[l.ID], clampNonNeg(ls.ExcessAvailable()))
		}
	}
}

func (m *refAdapt) CapacityChanged(id topology.LinkID, capacity float64) error {
	if err := m.Ledger.SetCapacity(id, capacity); err != nil {
		return err
	}
	ls := m.Ledger.Link(id)
	_, err := m.Alloc.TriggerCapacityChange(m.linkIdx[id], clampNonNeg(ls.ExcessAvailable()))
	return err
}

func (m *refAdapt) applyUpdate(connID string, rate float64) {
	ci, ok := m.conns[connID]
	if !ok || ci.mobility != qos.Static || ci.degraded {
		return
	}
	bw := ci.bounds.Clamp(ci.bounds.Min + rate)
	for _, l := range ci.route.Links {
		_ = m.Ledger.SetAllocation(connID, l.ID, bw)
	}
	if m.OnRate != nil {
		m.OnRate(connID, bw)
	}
}
