package faults

import (
	"fmt"
	"strings"

	"armnet/internal/admission"
	"armnet/internal/eventbus"
)

// Auditor checks the recovery invariants of a chaos run. The ledger is
// inspected directly; everything protocol-specific arrives through
// closures the harness wires up, so the package stays decoupled from
// core/signal/maxmin.
//
// Invariant classes:
//
//   - Ledger conservation (checked continuously after every component
//     fault, and at the end): allocations satisfy Cur ≥ Min ≥ 0 with
//     non-negative buffers, advance reservations stay within
//     [0, Capacity], and pool fractions stay within [0,1]. Note that
//     ΣMin ≤ Capacity is deliberately *not* asserted: a wireless
//     capacity drop legitimately strands committed minima above the new
//     effective capacity until adaptation catches up.
//   - No leaked holds (end only): once the plane has drained, no
//     tentative signaling holds remain — crashes may orphan holds, but
//     leases must have reclaimed them.
//   - No orphaned allocations (end only): every ledger allocation
//     belongs to a live connection (multicast legs "<conn>@mc:<dst>"
//     map to their owning connection).
//   - Re-convergence (end only): the maxmin allocation's distance from
//     the centralized water-filling oracle is within GapTol.
type Auditor struct {
	// Ledger is the admission ledger under audit.
	Ledger *admission.Ledger
	// PendingHolds returns the total tentative signaling holds (bits/s);
	// nil skips the leaked-holds check.
	PendingHolds func() float64
	// LiveConns returns the IDs of live connections; nil skips the
	// orphaned-allocation check.
	LiveConns func() []string
	// ConvergenceGap returns the max |protocol − oracle| rate gap; nil
	// skips the re-convergence check.
	ConvergenceGap func() float64
	// GapTol bounds the acceptable convergence gap (default 1e-6).
	GapTol float64
	// Bus, when non-nil, receives an InvariantViolation per failure.
	Bus *eventbus.Bus

	// Violations accumulates every failure seen, in detection order.
	Violations []string
}

// Watch subscribes the auditor to the bus so ledger conservation is
// re-checked immediately after every component fault and restoration.
func (a *Auditor) Watch(bus *eventbus.Bus) {
	a.Bus = bus
	bus.Subscribe(func(eventbus.Record) { a.CheckConservation() },
		eventbus.KindFaultComponent)
}

func (a *Auditor) report(invariant, detail string) {
	a.Violations = append(a.Violations, invariant+": "+detail)
	eventbus.Pub(a.Bus, eventbus.InvariantViolation{Invariant: invariant, Detail: detail})
}

// CheckConservation verifies the per-link ledger invariants. It returns
// the number of new violations.
func (a *Auditor) CheckConservation() int {
	if a.Ledger == nil {
		return 0
	}
	before := len(a.Violations)
	const eps = 1e-9
	for _, ls := range a.Ledger.Links() {
		link := string(ls.Link.ID)
		if ls.AdvanceReserved < -eps || ls.AdvanceReserved > ls.Capacity+eps {
			a.report("advance-bounds", fmt.Sprintf("%s: b_resv=%g outside [0, %g]", link, ls.AdvanceReserved, ls.Capacity))
		}
		if ls.PoolFraction < -eps || ls.PoolFraction > 1+eps {
			a.report("pool-bounds", fmt.Sprintf("%s: pool fraction %g outside [0,1]", link, ls.PoolFraction))
		}
		for _, id := range ls.Conns() {
			al, _ := ls.Alloc(id)
			if al.Min < -eps || al.Cur < al.Min-eps || al.Buffer < -eps {
				a.report("alloc-order", fmt.Sprintf("%s/%s: min=%g cur=%g buffer=%g", link, id, al.Min, al.Cur, al.Buffer))
			}
		}
	}
	return len(a.Violations) - before
}

// CheckFinal runs every invariant after the run has drained: conservation,
// leaked holds, orphaned allocations, and maxmin re-convergence. It
// returns all violations accumulated so far.
func (a *Auditor) CheckFinal() []string {
	a.CheckConservation()
	const eps = 1e-9
	if a.PendingHolds != nil {
		if held := a.PendingHolds(); held > eps {
			a.report("leaked-holds", fmt.Sprintf("tentative holds remain: %g bits/s", held))
		}
	}
	if a.LiveConns != nil && a.Ledger != nil {
		live := make(map[string]bool)
		for _, id := range a.LiveConns() {
			live[id] = true
		}
		for _, ls := range a.Ledger.Links() {
			for _, id := range ls.Conns() {
				owner := id
				if i := strings.Index(owner, "@"); i >= 0 {
					owner = owner[:i]
				}
				if !live[owner] {
					a.report("orphaned-alloc", fmt.Sprintf("%s holds allocation for dead %s", ls.Link.ID, id))
				}
			}
		}
	}
	if a.ConvergenceGap != nil {
		tol := a.GapTol
		if tol <= 0 {
			tol = 1e-6
		}
		if gap := a.ConvergenceGap(); gap > tol {
			a.report("maxmin-divergence", fmt.Sprintf("gap %g exceeds %g", gap, tol))
		}
	}
	return a.Violations
}
