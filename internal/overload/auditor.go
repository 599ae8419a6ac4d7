package overload

import (
	"fmt"

	"armnet/internal/admission"
	"armnet/internal/eventbus"
	"armnet/internal/topology"
)

// Auditor checks the overload subsystem's central invariant from the
// event stream: *no handoff is dropped while a degradable connection
// still holds more than its b_min on the contended link*. The paper's
// §5/§6 rule is that adaptable connections must give their excess back
// before anyone pays the worst price (a dropped handoff); the degrade
// cascade enforces it, and this auditor proves it held.
//
// The contended link is learned from the admission stream: the last
// failed AdmissionDecision for a connection names the link that refused
// it, and a subsequent dropped HandoffOutcome for the same connection
// triggers the ledger inspection.
type Auditor struct {
	// Ledger is the admission ledger under audit.
	Ledger *admission.Ledger
	// Degradable reports whether a cascade could still reclaim
	// bandwidth from the connection; nil treats every connection with
	// Cur > Min as degradable (strictest reading).
	Degradable func(connID string) bool
	// Eps is the slack allowed above b_min (default 1e-6).
	Eps float64
	// Bus, when non-nil, receives an InvariantViolation per failure.
	Bus *eventbus.Bus

	// Violations accumulates every failure seen, in detection order.
	Violations []string

	lastFail map[string]topology.LinkID
}

// Watch subscribes the auditor to the bus.
func (a *Auditor) Watch(bus *eventbus.Bus) {
	a.Bus = bus
	a.lastFail = make(map[string]topology.LinkID)
	bus.Subscribe(a.observe,
		eventbus.KindAdmissionDecision,
		eventbus.KindHandoffOutcome,
	)
}

func (a *Auditor) observe(r eventbus.Record) {
	switch ev := r.Event.(type) {
	case eventbus.AdmissionDecision:
		if !ev.Admitted && ev.Link != "" {
			a.lastFail[ev.Conn] = topology.LinkID(ev.Link)
		} else if ev.Admitted {
			delete(a.lastFail, ev.Conn)
		}
	case eventbus.HandoffOutcome:
		if ev.Dropped {
			a.checkDrop(ev.Conn)
		}
	}
}

// checkDrop inspects the contended link at the instant of the drop.
func (a *Auditor) checkDrop(conn string) {
	link, ok := a.lastFail[conn]
	if !ok || a.Ledger == nil {
		return
	}
	ls := a.Ledger.Link(link)
	if ls == nil {
		return
	}
	eps := a.Eps
	if eps <= 0 {
		eps = 1e-6
	}
	for _, id := range ls.Conns() {
		if id == conn {
			continue
		}
		al, ok := ls.Alloc(id)
		if !ok || al.Cur <= al.Min+eps {
			continue
		}
		if a.Degradable != nil && !a.Degradable(id) {
			continue
		}
		a.report("degrade-before-drop", fmt.Sprintf(
			"handoff %s dropped on %s while degradable %s holds %g > b_min %g",
			conn, link, id, al.Cur, al.Min))
	}
}

func (a *Auditor) report(invariant, detail string) {
	a.Violations = append(a.Violations, invariant+": "+detail)
	eventbus.Pub(a.Bus, eventbus.InvariantViolation{Invariant: invariant, Detail: detail})
}
