package strategy

import (
	"fmt"

	"armnet/internal/admission"
	"armnet/internal/eventbus"
)

// measuredHeadroom is the utilization target: a flow is admitted only if
// the measured aggregate plus its b_min stays under this fraction of
// link capacity. The 5% slack is the admitter's only hedge against
// measurement staleness and unpredicted handoffs.
const measuredHeadroom = 0.95

// measuredAdmitter is a Jaramillo–Ying-style measurement-based admission
// test: capacity-region-free, with no Table 2 rows. Each link admits on
// a single measured quantity — the currently allocated aggregate ΣCur,
// which (unlike Table 2's ΣMin) includes the excess the allocator has
// handed out — against a fixed headroom target:
//
//	admit  iff  ΣCur_l + b_min ≤ headroom × C_l  on every route link.
//
// Delay, jitter, buffer, and loss bounds are never checked (the scheme
// trusts the headroom to keep queues short), advance reservations and
// the B_dyn pool are not withheld from new flows, and the committed
// allocation is exactly b_min with no buffer booking. Handoffs still
// consume the advance reservation so the §6 machinery stays conserved.
//
// The bookable-minimum invariant holds by construction: ΣCur ≥ ΣMin, so
// an admitted flow always fits ΣMin + b_min ≤ C_l.
type measuredAdmitter struct {
	lg  *admission.Ledger
	bus *eventbus.Bus
}

// Admit runs the measurement test on every route link and commits b_min
// on success; on failure no state changes.
func (m *measuredAdmitter) Admit(t admission.Test) (admission.Result, error) {
	res, err := m.admit(t)
	if err == nil {
		eventbus.Pub(m.bus, eventbus.AdmissionDecision{
			Conn:      t.ConnID,
			Class:     t.Kind.String(),
			Admitted:  res.Admitted,
			Reason:    res.Reason,
			Link:      string(res.FailedLink),
			Bandwidth: res.Bandwidth,
		})
	}
	return res, err
}

func (m *measuredAdmitter) admit(t admission.Test) (admission.Result, error) {
	if err := t.Req.Validate(); err != nil {
		return admission.Result{}, fmt.Errorf("%w: %v", admission.ErrValidation, err)
	}
	if t.ConnID == "" {
		return admission.Result{}, fmt.Errorf("%w: empty connection id", admission.ErrValidation)
	}
	if len(t.Route.Links) == 0 {
		return admission.Result{}, fmt.Errorf("%w: empty route", admission.ErrValidation)
	}
	bmin := t.Req.Bandwidth.Min
	var res admission.Result
	states := make([]*admission.LinkState, 0, len(t.Route.Links))
	for _, link := range t.Route.Links {
		ls := m.lg.Link(link.ID)
		if ls == nil {
			return admission.Result{}, fmt.Errorf("%w: %s", admission.ErrUnknownLink, link.ID)
		}
		if ls.Down || ls.SumCur()+bmin > ls.Capacity*measuredHeadroom {
			res.Reason = admission.ReasonBandwidth
			res.FailedLink = link.ID
			return res, nil
		}
		states = append(states, ls)
	}
	res.Bandwidth = bmin
	for _, ls := range states {
		if t.Kind == admission.KindHandoff || t.Kind == admission.KindPoolClaim {
			take := bmin
			if take > ls.AdvanceReserved {
				take = ls.AdvanceReserved
			}
			ls.AdvanceReserved -= take
		}
		if err := ls.Book(t.ConnID, admission.Alloc{Min: bmin, Cur: bmin}); err != nil {
			return admission.Result{}, err
		}
	}
	res.Admitted = true
	return res, nil
}
