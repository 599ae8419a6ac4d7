package core

import (
	"fmt"

	"armnet/internal/admission"
	"armnet/internal/eventbus"
	"armnet/internal/qos"
	"armnet/internal/topology"
)

// validate refuses a malformed request before it is counted as requested:
// one that is never admitted nor blocked would otherwise leave the
// counters unbalanced. Best-effort requests carry no bounds to check.
func validate(req qos.Request) error {
	if req.BestEffort() {
		return nil
	}
	return req.Validate()
}

// beginOpen is the prelude OpenConnection and OpenConnectionAsync share:
// it validates and counts the request, applies overload shedding, and
// names the connection, its host and its route. A best-effort request
// needs no admission test, so beginOpen commits it too and reports done.
func (m *Manager) beginOpen(portable string, req qos.Request) (c Connection, p *Portable, done bool, err error) {
	p, ok := m.portables[portable]
	if !ok {
		return c, nil, false, fmt.Errorf("%w: %s", errUnknownPortable, portable)
	}
	if err := validate(req); err != nil {
		return c, nil, false, err
	}
	eventbus.Pub(m.Bus, eventbus.ConnectionRequested{Portable: portable})
	// Overload shedding and the circuit breaker apply before any
	// resources are touched or signaling is queued; best-effort requests
	// are exempt (they hold nothing, §4 never blocks them).
	if !req.BestEffort() {
		if err := m.allowSetup(p); err != nil {
			return c, nil, false, err
		}
	}
	host := m.Env.Hosts[m.Rng.Intn(len(m.Env.Hosts))]
	route, err := m.Env.Backbone.ShortestPath(host, m.geo(p.Cell).air)
	if err != nil {
		return c, nil, false, err
	}
	c = Connection{ID: fmt.Sprintf("conn-%d", m.nextConn), Portable: portable, Req: req, Host: host, Route: route}
	m.nextConn++
	if req.BestEffort() {
		_, err = m.commitOpen(c, p)
		return c, p, true, err
	}
	return c, p, false, nil
}

// admissionTest is the new-connection test both open paths run.
func (c *Connection) admissionTest(p *Portable) admission.Test {
	return admission.Test{ConnID: c.ID, Req: c.Req, Route: c.Route, Kind: admission.KindNew, Mobility: p.Mobility}
}

// commitOpen records an admitted connection, its Bandwidth set, and
// unless it is best-effort registers it for adaptation, sets up its
// multicast tree and refreshes the advance reservation and pools. It
// returns the connection ID, or "" and the registration error.
func (m *Manager) commitOpen(c Connection, p *Portable) (string, error) {
	eventbus.Pub(m.Bus, eventbus.ConnectionAdmitted{Conn: c.ID, Portable: c.Portable, Bandwidth: c.Bandwidth, BestEffort: c.Req.BestEffort()})
	m.conns[c.ID] = &c
	p.conns.Insert(c.ID)
	if c.Req.BestEffort() {
		return c.ID, nil
	}
	if err := m.Adpt.Register(c.ID, c.Route, c.Req.Bandwidth, p.Mobility); err != nil {
		return "", err
	}
	m.mc.setupMulticast(&c, p.Cell)
	m.refreshAdvance(p)
	m.adjustPools(p.Cell)
	return c.ID, nil
}

// OpenConnection admits a new downlink connection from a wired host to
// the portable with the given QoS bounds. It returns the connection ID on
// success and ErrRejected (wrapped with the reason) when admission fails.
//
// A request with zero bandwidth bounds (req.BestEffort()) bypasses
// admission control entirely (§4: "if no QoS parameters are specified,
// the network will provide best-effort service"): the connection is
// tracked with no reservation, is never blocked, and never causes a
// handoff drop — it simply uses whatever capacity is left over.
func (m *Manager) OpenConnection(portable string, req qos.Request) (string, error) {
	c, p, done, err := m.beginOpen(portable, req)
	if err != nil || done {
		return c.ID, err
	}
	res, err := m.Adm.Admit(c.admissionTest(p))
	if err != nil {
		return "", err
	}
	if !res.Admitted {
		eventbus.Pub(m.Bus, eventbus.ConnectionBlocked{Portable: portable, Reason: res.Reason})
		return "", fmt.Errorf("%w: %s at %s", ErrRejected, res.Reason, res.FailedLink)
	}
	c.Bandwidth = res.Bandwidth
	return m.commitOpen(c, p)
}

// CloseConnection releases a connection everywhere.
func (m *Manager) CloseConnection(connID string) error {
	c, ok := m.conns[connID]
	if !ok {
		return fmt.Errorf("%w: %s", errUnknownConn, connID)
	}
	eventbus.Pub(m.Bus, eventbus.ConnectionClosed{Conn: connID, Portable: c.Portable})
	m.ledger.Release(connID, c.Route)
	m.mc.releaseMulticast(c)
	m.Adpt.Unregister(connID)
	delete(m.conns, connID)
	delete(m.rateWatchers, connID)
	if p := m.portables[c.Portable]; p != nil {
		p.conns.Remove(connID)
		m.refreshAdvance(p)
	}
	return nil
}

// setupMulticast sets up the wired multicast tree toward the base
// stations of the cell's neighbors and reserves b_min on its wired links
// where possible, leg by leg in the plan's order. Failure is never fatal
// (§4: "the failure of the end-to-end test along any route will not cause
// the forced termination of the connection").
func (m *Manager) setupMulticast(c *Connection, cell topology.CellID) {
	pl := m.plan(c.Host, cell)
	if pl == nil || pl.tree == nil {
		return
	}
	c.Multicast, c.mcast = pl.tree, pl
	// Reserve b_min on each branch with a best-effort admission test.
	for i := range pl.legs {
		leg := &pl.legs[i]
		_, _ = m.Adm.Admit(admission.Test{
			ConnID:   c.legID(leg),
			Req:      c.Req,
			Route:    leg.route,
			Kind:     admission.KindNew,
			Mobility: qos.Mobile,
		})
	}
}

// releaseMulticast frees the multicast branch reservations.
func (m *Manager) releaseMulticast(c *Connection) {
	if c.mcast == nil {
		return
	}
	for i := range c.mcast.legs {
		leg := &c.mcast.legs[i]
		m.ledger.Release(c.legID(leg), leg.route)
	}
	c.Multicast, c.mcast = nil, nil
}

// HandoffPortable executes a handoff of the portable into the given
// neighboring cell: every connection is re-admitted over the new route
// (consuming advance reservations when present, dipping into the B_dyn
// pool for unpredicted moves of static portables), the profile servers
// are updated, the static timer restarts, and a fresh advance reservation
// is placed per the §6 prediction.
func (m *Manager) HandoffPortable(id string, to topology.CellID) error {
	p, ok := m.portables[id]
	if !ok {
		return fmt.Errorf("%w: %s", errUnknownPortable, id)
	}
	toCell := m.geo(to)
	if toCell == nil {
		return fmt.Errorf("%w: %s", errUnknownCell, to)
	}
	if to == p.Cell {
		return nil
	}
	from := p.Cell
	// Was this move predicted (advance reservation waiting in `to`)?
	_, predicted := p.reservedCells[to]
	// Sudden movement of a static portable: unpredicted by definition,
	// allowed to claim the pool.
	kind := admission.KindHandoff
	if !predicted {
		kind = admission.KindPoolClaim
		eventbus.Pub(m.Bus, eventbus.PoolClaim{Portable: id, From: string(from), To: string(to)})
	}
	// Update counters for meeting rooms.
	m.noteMeetingDeparture(id, from)
	m.noteMeetingArrival(id, to)

	// Report the handoff to the profile machinery before re-admission,
	// mirroring the base station's update message.
	m.Pred.RecordHandoff(profileHandoff(p, to, m.Sim.Now()))

	// Score the pending §6 prediction against the actual destination —
	// before clearAdvance discards the note.
	m.resolvePrediction(p, to)

	// Clear this portable's old advance reservations (including the one
	// in `to`, which the re-admission below consumes via the ledger).
	m.clearAdvance(p)

	m.handoffConns = append(m.handoffConns[:0], p.conns...)
	for _, connID := range m.handoffConns {
		c := m.conns[connID]
		eventbus.Pub(m.Bus, eventbus.HandoffAttempt{
			Conn: connID, Portable: id,
			From: string(from), To: string(to), Predicted: predicted,
		})
		newRoute, err := m.Env.Backbone.ShortestPath(c.Host, toCell.air)
		if err != nil {
			m.dropConnection(c, p)
			continue
		}
		m.recordHandoffLatency(c, newRoute, predicted)
		if c.Req.BestEffort() {
			// Best-effort connections carry no reservation: they follow
			// the portable unconditionally.
			c.Route = newRoute
			eventbus.Pub(m.Bus, eventbus.HandoffOutcome{Conn: connID, Portable: id})
			continue
		}
		// Release the old path first (the portable has left the cell),
		// then admit on the new one.
		m.ledger.Release(connID, c.Route)
		test := admission.Test{
			ConnID:   connID,
			Req:      c.Req,
			Route:    newRoute,
			Kind:     kind,
			Mobility: qos.Mobile,
		}
		res, err := m.Adm.Admit(test)
		if err == nil && !res.Admitted && m.Ovl != nil && res.FailedLink != "" {
			// Degrade before drop: cap every adaptable connection on the
			// contended link at b_min, then re-test once. Dropping an
			// ongoing connection is the worst outcome the paper knows
			// (§6); excess bandwidth must go first.
			if m.degradeLink(res.FailedLink) > 0 {
				res, err = m.Adm.Admit(test)
			}
		}
		if err != nil || !res.Admitted {
			m.dropConnection(c, p)
			continue
		}
		eventbus.Pub(m.Bus, eventbus.HandoffOutcome{Conn: connID, Portable: id})
		m.Adpt.Unregister(connID)
		m.mc.releaseMulticast(c)
		c.Route = newRoute
		c.Bandwidth = res.Bandwidth
		_ = m.Adpt.Register(connID, newRoute, c.Req.Bandwidth, qos.Mobile)
		m.mc.setupMulticast(c, to)
	}

	p.Prev = from
	p.Cell = to
	p.arrivedAt = m.Sim.Now()
	m.becomeMobile(p)
	m.armStaticTimer(p)
	m.refreshAdvance(p)
	m.adjustPools(to, from)
	return nil
}

// dropConnection force-terminates a connection that failed its handoff
// admission. The drop log lives in Metrics, which hears about it through
// the HandoffOutcome event.
func (m *Manager) dropConnection(c *Connection, p *Portable) {
	eventbus.Pub(m.Bus, eventbus.HandoffOutcome{Conn: c.ID, Portable: p.ID, Dropped: true})
	m.ledger.Release(c.ID, c.Route)
	m.mc.releaseMulticast(c)
	m.Adpt.Unregister(c.ID)
	delete(m.conns, c.ID)
	delete(m.rateWatchers, c.ID)
	p.conns.Remove(c.ID)
}
