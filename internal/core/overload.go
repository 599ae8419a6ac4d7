package core

import (
	"fmt"

	"armnet/internal/eventbus"
	"armnet/internal/overload"
	"armnet/internal/qos"
	"armnet/internal/topology"
)

// armOverload wires the overload controller over every cell's wireless
// downlink. It runs only when Config.Overload is non-nil, so a nil
// policy arms no timers, subscribes nothing, and publishes nothing.
func (m *Manager) armOverload(pol overload.Policy) {
	m.Ovl = overload.NewController(m.Sim, m.ledger, m.Bus, pol, overload.Hooks{
		// The signaling plane is built lazily; until a setup exists the
		// queue is empty and nothing has retransmitted, so the hooks
		// must not force construction.
		QueueDepth: func() int {
			if m.sigPlane == nil {
				return 0
			}
			return m.sigPlane.InFlight()
		},
		Retransmits: func() int {
			if m.sigPlane == nil {
				return 0
			}
			return m.sigPlane.Retransmits
		},
		Degrade: func(_ topology.CellID, link topology.LinkID) int { return m.degradeLink(link) },
		Restore: func(_ topology.CellID, link topology.LinkID) int { return m.restoreLink(link) },
	})
	cells := m.Env.Universe.Cells()
	links := make([]overload.CellLink, 0, len(cells))
	for _, c := range cells {
		if l := m.downlink(c.ID); l != "" {
			links = append(links, overload.CellLink{Cell: c.ID, Link: l})
		}
	}
	m.Ovl.Start(links)
}

// setupClass classifies a new setup for priority shedding (handoffs are
// classified at the call site; they never reach the shed path).
func (m *Manager) setupClass(p *Portable) overload.Class {
	if p.Mobility == qos.Static {
		return overload.ClassNewStatic
	}
	return overload.ClassNewMobile
}

// allowSetup asks the overload controller whether a new setup may
// proceed; with no controller everything passes. On refusal it returns
// the rejection error: ErrBusy-wrapped for breaker fast-fails.
func (m *Manager) allowSetup(p *Portable) error {
	if m.Ovl == nil {
		return nil
	}
	ok, reason := m.Ovl.AllowSetup(m.setupClass(p), p.Cell, p.ID)
	if ok {
		return nil
	}
	eventbus.Pub(m.Bus, eventbus.ConnectionBlocked{Portable: p.ID, Reason: reason})
	if reason == "breaker-open" {
		return fmt.Errorf("%w: %w", ErrRejected, overload.ErrBusy)
	}
	return fmt.Errorf("%w: overload %s", ErrRejected, reason)
}

// degradeLink caps every degradable connection crossing the link at
// b_min — the §5 rule that adaptable connections give their excess back
// before anyone is dropped. Returns the number newly capped.
func (m *Manager) degradeLink(link topology.LinkID) int {
	if link == "" {
		return 0
	}
	n := 0
	for _, id := range m.ConnIDs() {
		c := m.conns[id]
		if !routeUses(c.Route, link) || c.ad == nil {
			continue
		}
		if m.Adpt.Degrade(c.ad) {
			n++
			eventbus.Pub(m.Bus, eventbus.DegradeCascade{Conn: id, Link: string(link), Action: "degrade"})
		}
	}
	return n
}

// restoreLink lifts the cascade once the cell has left overload.
func (m *Manager) restoreLink(link topology.LinkID) int {
	if link == "" {
		return 0
	}
	n := 0
	for _, id := range m.ConnIDs() {
		c := m.conns[id]
		if !routeUses(c.Route, link) || c.ad == nil {
			continue
		}
		if m.Adpt.Restore(c.ad) {
			n++
			eventbus.Pub(m.Bus, eventbus.DegradeCascade{Conn: id, Link: string(link), Action: "restore"})
		}
	}
	return n
}

// OverloadAuditor subscribes a degrade-before-drop invariant checker
// wired to this manager and returns it; inspect Violations after the
// run.
func (m *Manager) OverloadAuditor() *overload.Auditor {
	a := &overload.Auditor{Ledger: m.ledger}
	a.Watch(m.Bus)
	return a
}
