package core

import (
	"fmt"

	"armnet/internal/sortx"
	"armnet/internal/topology"
)

// This file makes *Manager a faults.Driver: the execution backend for
// the timed component faults of a fault plan. Each primitive maps the
// plan's abstract action onto the integrated system — terminating
// connections through the same paths real departures take, so the
// ledger, adaptation protocol, and metrics all observe the failure.

// FailLink marks a backbone link down. Connections routed over it are
// forcibly terminated (released everywhere, reported as closed), the
// link stops admitting, and its excess is withdrawn from adaptation.
// Failing an already-down link is a no-op.
func (m *Manager) FailLink(link string) error {
	id := topology.LinkID(link)
	ls := m.ledger.Link(id)
	if ls == nil {
		return fmt.Errorf("core: unknown link %s", link)
	}
	if ls.Down {
		return nil
	}
	ls.Down = true
	for _, connID := range m.ConnIDs() {
		if routeUses(m.conns[connID].Route, id) {
			_ = m.CloseConnection(connID)
		}
	}
	if m.Adpt != nil {
		_ = m.Adpt.SyncLink(id)
	}
	return nil
}

// RestoreLink brings a failed link back into service and re-advertises
// its excess capacity to the adaptation protocol.
func (m *Manager) RestoreLink(link string) error {
	id := topology.LinkID(link)
	ls := m.ledger.Link(id)
	if ls == nil {
		return fmt.Errorf("core: unknown link %s", link)
	}
	if !ls.Down {
		return nil
	}
	ls.Down = false
	if m.Adpt != nil {
		_ = m.Adpt.SyncLink(id)
	}
	return nil
}

// FailCell takes a cell out of service by failing its wireless downlink:
// the cell's connections terminate and no setup or handoff into the cell
// can admit until restoration.
func (m *Manager) FailCell(cell string) error {
	link := m.downlink(topology.CellID(cell))
	if link == "" {
		return fmt.Errorf("%w: %s", ErrUnknownCell, cell)
	}
	return m.FailLink(string(link))
}

// RestoreCell returns a failed cell to service.
func (m *Manager) RestoreCell(cell string) error {
	link := m.downlink(topology.CellID(cell))
	if link == "" {
		return fmt.Errorf("%w: %s", ErrUnknownCell, cell)
	}
	return m.RestoreLink(string(link))
}

// CrashZone crashes a zone's profile server with total state loss (warm
// restart with empty histories). Predictions degrade to the default
// level until profiles rebuild; the per-slot policy evaluation re-derives
// lounge reservations from live state, so advance reservations self-heal.
func (m *Manager) CrashZone(zone string) error {
	return m.Pred.CrashZone(zone)
}

// Blackout forces the cell's attached wireless channel to its worst
// capacity level for the given duration. The cell must have a channel
// from AttachChannel.
func (m *Manager) Blackout(cell string, duration float64) error {
	cp := m.channels[topology.CellID(cell)]
	if cp == nil {
		return fmt.Errorf("core: no channel attached to cell %s", cell)
	}
	cp.Blackout(m.Sim, duration)
	return nil
}

// CrashSignaling crashes the signaling plane: in-flight setups are
// abandoned with their tentative holds left orphaned (reclaimed later by
// the hold lease, when configured — otherwise they leak and the fault
// auditor flags them).
func (m *Manager) CrashSignaling() error {
	m.SignalPlane().Crash()
	return nil
}

// ConnIDs returns the IDs of all live connections, sorted — the
// liveness oracle fault auditors check ledger allocations against.
func (m *Manager) ConnIDs() []string { return sortx.Keys(m.conns) }

func routeUses(r topology.Route, id topology.LinkID) bool {
	for _, l := range r.Links {
		if l.ID == id {
			return true
		}
	}
	return false
}
