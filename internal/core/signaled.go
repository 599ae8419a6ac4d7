package core

import (
	"fmt"

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
	if done == nil {
		return fmt.Errorf("core: nil completion callback")
	}
	c, p, tracked, err := m.beginOpen(portable, req)
	if err != nil {
		return err
	}
	if tracked {
		done(c.ID, nil)
		return nil
	}
	originCell := p.Cell
	m.SignalPlane().Setup(c.admissionTest(p), func(r signal.Result) {
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
			m.ledger.Release(c.ID, c.Route)
			eventbus.Pub(m.Bus, eventbus.ConnectionBlocked{Portable: portable, Reason: "portable moved during setup"})
			done("", fmt.Errorf("%w: portable moved during setup", ErrRejected))
			return
		}
		c.Bandwidth = r.Admission.Bandwidth
		done(m.commitOpen(c, p))
	})
	return nil
}
