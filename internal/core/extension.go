package core

import (
	"fmt"

	"armnet/internal/admission"
	"armnet/internal/profile"
	"armnet/internal/qos"
	"armnet/internal/topology"
)

// Renegotiate performs application-initiated adaptation (§4.2, §5.3):
// the application asks for new QoS bounds and "the network essentially
// treats it as a new connection request" — the connection is re-admitted
// over its current route with the new bounds. On failure the old
// reservation is restored untouched and the error wraps ErrRejected.
func (m *Manager) Renegotiate(connID string, bounds qos.Bounds) error {
	c, ok := m.conns[connID]
	if !ok {
		return fmt.Errorf("%w: %s", errUnknownConn, connID)
	}
	if err := bounds.Validate(); err != nil {
		return err
	}
	p := m.portables[c.Portable]
	if p == nil {
		return fmt.Errorf("%w: %s", errUnknownPortable, c.Portable)
	}
	newReq := c.Req
	newReq.Bandwidth = bounds
	// Release, then attempt admission with the new bounds; roll back on
	// failure. A best-effort connection books from here on, so it takes
	// the ledger holder commitOpen did not give it.
	if c.h == nil {
		c.h = m.ledger.Hold(connID)
	}
	m.rsv.releaseRoute(c)
	res, err := m.Adm.Admit(admission.Test{
		ConnID:   connID,
		Holder:   c.h,
		Req:      newReq,
		Route:    c.Route,
		Kind:     admission.KindNew,
		Mobility: p.Mobility,
	})
	if err == nil && !res.Admitted {
		// Restore the previous reservation.
		restored, rerr := m.Adm.Admit(admission.Test{
			ConnID:   connID,
			Holder:   c.h,
			Req:      c.Req,
			Route:    c.Route,
			Kind:     admission.KindNew,
			Mobility: p.Mobility,
		})
		if rerr != nil || !restored.Admitted {
			// The old reservation cannot fail to restore (it just fit),
			// but guard anyway: drop the connection rather than leak.
			m.dropConnection(c, p)
			return fmt.Errorf("%w: renegotiation failed and restore impossible", ErrRejected)
		}
		return fmt.Errorf("%w: %s at %s", ErrRejected, res.Reason, res.FailedLink)
	}
	if err != nil {
		return err
	}
	c.Req = newReq
	c.Bandwidth = res.Bandwidth
	if c.ad == nil { // a best-effort connection joins adaptation now
		if c.ad, err = m.Adpt.Open(connID, c.Route, bounds, p.Mobility); err != nil {
			return err
		}
	} else {
		m.Adpt.Leave(c.ad)
		if err := m.Adpt.Join(c.ad, c.Route, bounds, p.Mobility); err != nil {
			return err
		}
	}
	m.refreshAdvance(p)
	return nil
}

// AttachChannel models the time-varying effective capacity of a cell's
// air interface (§2.1): a capacity process is scheduled on the simulator
// and every change flows into the ledger and — via eq. (2)'s triggers —
// into the adaptation protocol.
func (m *Manager) AttachChannel(cell topology.CellID, levels []float64, dwellMean float64) error {
	link := m.downlink(cell)
	if link == "" {
		return fmt.Errorf("%w: %s", errUnknownCell, cell)
	}
	cp, err := newCapacityProcess(levels, dwellMean, m.Rng, m.Bus, string(link))
	if err != nil {
		return err
	}
	cp.attach(m.Sim, func(capacity float64) {
		_ = m.Adpt.CapacityChanged(link, capacity)
	})
	m.channels[cell] = cp
	return nil
}

// LearnClasses runs the §6.4 learning process: for every cell whose
// configured class is unknown, the zone profile server's observed handoff
// history is classified (office / corridor / lounge subclasses) and the
// universe updated. It returns the cells whose class changed. Cells with
// insufficient evidence stay unknown and keep using the default
// reservation algorithm.
func (m *Manager) LearnClasses() []topology.CellID {
	var changed []topology.CellID
	for _, cell := range m.Env.Universe.Cells() {
		if cell.Class != topology.ClassUnknown {
			continue
		}
		srv := m.Pred.ServerFor(cell.ID)
		if srv == nil {
			continue
		}
		cp := srv.Cell(cell.ID)
		if cp == nil {
			continue
		}
		if got := profile.Classify(cp); got != topology.ClassUnknown {
			cell.Class = got
			cp.Class = got
			changed = append(changed, cell.ID)
		}
	}
	return changed
}
