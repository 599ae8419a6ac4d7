package core

import (
	"fmt"

	"armnet/internal/admission"
	"armnet/internal/clock"
	"armnet/internal/eventbus"
	"armnet/internal/qos"
	"armnet/internal/signal"
)

// SignalPlane lazily constructs the signaling plane (§5.1's round-trip
// setup as timed control messages with tentative holds). Its hold/commit/
// abort milestones are published on the manager's bus.
func (m *Manager) SignalPlane() *signal.Plane {
	if m.sigPlane == nil {
		opts := m.Cfg.Signal
		opts.Bus = m.Bus
		m.sigPlane = signal.NewPlaneOn(clock.Sim(m.Sim), m.Adm, m.ledger, opts)
	}
	return m.sigPlane
}

// OpenConnectionAsync opens a connection through the signaling plane: the
// request travels the route as control messages (forward test with
// tentative holds, destination evaluation, reverse commit), and done is
// invoked at the simulated completion time with the connection ID or the
// failure. Unlike OpenConnection, concurrent setups race realistically
// and setup latency is charged.
//
// If the portable hands off while setup is in flight, the freshly
// committed reservation targets a cell the portable has left; the setup
// is then aborted (resources released, reported as rejected) — the
// application retries, as it would in a real system.
func (m *Manager) OpenConnectionAsync(portable string, req qos.Request, done func(connID string, err error)) error {
	p, ok := m.portables[portable]
	if !ok {
		return fmt.Errorf("%w: %s", errUnknownPortable, portable)
	}
	if done == nil {
		return fmt.Errorf("core: nil completion callback")
	}
	if err := validate(req); err != nil {
		return err
	}
	eventbus.Pub(m.Bus, eventbus.ConnectionRequested{Portable: portable})
	// Overload shedding and the circuit breaker fail fast here, before
	// any signaling is queued; best-effort requests are exempt.
	if !req.BestEffort() {
		if err := m.allowSetup(p); err != nil {
			return err
		}
	}
	host := m.Env.Hosts[m.Rng.Intn(len(m.Env.Hosts))]
	route, err := m.Env.Backbone.ShortestPath(host, m.geo(p.Cell).air)
	if err != nil {
		return err
	}
	connID := fmt.Sprintf("conn-%d", m.nextConn)
	m.nextConn++
	if req.BestEffort() {
		eventbus.Pub(m.Bus, eventbus.ConnectionAdmitted{Conn: connID, Portable: portable, BestEffort: true})
		c := &Connection{ID: connID, Portable: portable, Req: req, Host: host, Route: route}
		m.conns[connID] = c
		p.conns.Insert(connID)
		done(connID, nil)
		return nil
	}
	originCell := p.Cell
	m.SignalPlane().Setup(admission.Test{
		ConnID:   connID,
		Req:      req,
		Route:    route,
		Kind:     admission.KindNew,
		Mobility: p.Mobility,
	}, func(r signal.Result) {
		// Every finished session feeds the circuit breaker's sliding
		// failure window (and decides its half-open probes).
		if m.Ovl != nil {
			m.Ovl.RecordSetupOutcome(r.Err != nil)
		}
		if r.Err != nil {
			eventbus.Pub(m.Bus, eventbus.ConnectionBlocked{Portable: portable, Reason: r.Err.Error()})
			done("", fmt.Errorf("%w: %v", ErrRejected, r.Err))
			return
		}
		// The plane committed the reservation; make sure the world did
		// not shift under us.
		if cur, ok := m.portables[portable]; !ok || cur.Cell != originCell {
			m.ledger.Release(connID, route)
			eventbus.Pub(m.Bus, eventbus.ConnectionBlocked{Portable: portable, Reason: "portable moved during setup"})
			done("", fmt.Errorf("%w: portable moved during setup", ErrRejected))
			return
		}
		eventbus.Pub(m.Bus, eventbus.ConnectionAdmitted{Conn: connID, Portable: portable, Bandwidth: r.Admission.Bandwidth})
		c := &Connection{
			ID: connID, Portable: portable, Req: req,
			Host: host, Route: route, Bandwidth: r.Admission.Bandwidth,
		}
		m.conns[connID] = c
		p.conns.Insert(connID)
		if err := m.Adpt.Register(connID, route, req.Bandwidth, p.Mobility); err != nil {
			done("", err)
			return
		}
		m.mc.setupMulticast(c, p.Cell)
		m.refreshAdvance(p)
		m.adjustPools(p.Cell)
		done(connID, nil)
	})
	return nil
}
