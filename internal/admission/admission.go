package admission

import (
	"errors"
	"fmt"

	"armnet/internal/eventbus"
	"armnet/internal/qos"
	"armnet/internal/sched"
	"armnet/internal/topology"
)

// Kind distinguishes how a connection arrives at the admission test.
type Kind int

const (
	// KindNew is a fresh connection request; it may not consume advance
	// reservations or the B_dyn pool.
	KindNew Kind = iota
	// KindHandoff is an ongoing connection following its portable into a
	// new cell; it may consume the advance reservation b_resv,l.
	KindHandoff
	// KindPoolClaim is a handoff that was NOT predicted (e.g. sudden
	// movement of a static portable); it may dip into the B_dyn pool.
	KindPoolClaim
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case KindNew:
		return "new"
	case KindHandoff:
		return "handoff"
	case KindPoolClaim:
		return "pool-claim"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Test bundles one admission attempt.
type Test struct {
	ConnID string
	Req    qos.Request
	Route  topology.Route
	Kind   Kind
	// Mobility selects the reverse-pass allocation rule: static
	// portables get b_min + b_stamp, mobile ones b_min (Table 2).
	Mobility qos.Mobility
	// BStamp is the stamped rate the rate-allocation protocol attached
	// to the forward pass (0 when no excess is on offer).
	BStamp float64
	// Discipline selects the buffer formula (WFQ by default).
	Discipline sched.Discipline
}

// lmax is the largest packet size on a path in bits: 1 KB packets,
// typical for the paper's era.
const lmax = 8 * 1024

// hopReport records the per-link outcome of the forward pass and the
// reverse-pass relaxation for one hop.
type hopReport struct {
	Link         topology.LinkID
	HopDelay     float64 // d_{l,j}
	RelaxedDelay float64 // d'_{l,j}
	Jitter       float64 // (σ + l·L_max)/b_min at this hop
	Buffer       float64 // committed buffer after the reverse pass
	Loss         float64 // p_e,l
}

// Result is the outcome of an admission test.
type Result struct {
	Admitted bool
	// Reason explains a rejection; empty on success.
	Reason string
	// FailedLink is the link where the forward pass failed, if any.
	FailedLink topology.LinkID
	// Bandwidth is the committed b_j after the reverse pass.
	Bandwidth float64
	// DelayFloor is d_min,j, the tightest end-to-end delay the route
	// supports at b_min.
	DelayFloor float64
	// EndToEndJitter is (σ + n·L_max)/b_min.
	EndToEndJitter float64
	// EndToEndLoss is 1 - Π(1 - p_e,i).
	EndToEndLoss float64
	// Hops reports the hops the forward pass cleared. It is the
	// controller's scratch: valid until the next Admit on the same
	// Controller, so a caller that keeps it copies it.
	Hops []hopReport
}

// Rejection reasons (stable strings, also used by stats).
const (
	ReasonBandwidth = "bandwidth"
	reasonDelay     = "delay"
	reasonJitter    = "jitter"
	reasonBuffer    = "buffer"
	reasonLoss      = "loss"
)

// ErrValidation wraps malformed test inputs.
var ErrValidation = errors.New("admission: invalid test")

// Admitter is the atomic test-and-commit every new connection, handoff
// and renegotiation goes through. Admit runs the full round trip: on
// success the connection's allocation is booked on every link of the
// route; on failure no state changes. An admitter books into the shared
// ledger, so the conservation invariants of faults.Auditor hold whatever
// its test. *Controller, the paper's Table 2, is the default.
type Admitter interface {
	Admit(Test) (Result, error)
}

// Controller runs Table 2 admission tests against a ledger.
type Controller struct {
	Ledger *Ledger
	// Bus, when non-nil, receives an AdmissionDecision event for every
	// completed Admit round trip — including renegotiations and multicast
	// legs that the aggregate counters deliberately ignore.
	Bus *eventbus.Bus

	// admit's per-hop scratch: a Controller is one goroutine's, like its Ledger.
	states     []*LinkState
	caps, loss []float64
	hops       []hopReport
}

// NewController returns a controller over the given ledger.
func NewController(lg *Ledger) *Controller { return &Controller{Ledger: lg} }

// Admit runs the full round-trip admission test. On success the
// connection's allocation is committed to every link of the route; on
// failure no state changes.
func (c *Controller) Admit(t Test) (Result, error) {
	res, err := c.admit(t)
	if err == nil {
		eventbus.Pub(c.Bus, eventbus.AdmissionDecision{
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

func (c *Controller) admit(t Test) (Result, error) {
	if err := t.Req.Validate(); err != nil {
		return Result{}, fmt.Errorf("%w: %v", ErrValidation, err)
	}
	if t.ConnID == "" {
		return Result{}, fmt.Errorf("%w: empty connection id", ErrValidation)
	}
	if len(t.Route.Links) == 0 {
		return Result{}, fmt.Errorf("%w: empty route", ErrValidation)
	}
	bmin := t.Req.Bandwidth.Min
	sigma := t.Req.Traffic.Sigma
	n := t.Route.Hops()

	// ---- Forward pass ----
	res := Result{Hops: c.hops[:0]}
	states, caps, lossPerLink := c.states[:0], c.caps[:0], c.loss[:0]
	for _, link := range t.Route.Links {
		ls := c.Ledger.Link(link.ID)
		if ls == nil {
			return Result{}, fmt.Errorf("%w: %s", ErrUnknownLink, link.ID)
		}
		states = append(states, ls)
		caps = append(caps, ls.Capacity)
		lossPerLink = append(lossPerLink, link.LossProb)
	}
	c.states, c.caps, c.loss = states, caps, lossPerLink
	// d_min,j depends only on the route's capacities, so it is known before
	// the hop-by-hop tests run. The RCSP buffer row needs it: the reverse
	// pass commits buffers against the *relaxed* upstream delay, so the
	// forward check must bound that commitment, not the unrelaxed delay.
	delayFloor := sched.EndToEndDelayFloor(sigma, lmax, bmin, caps)
	for hop, link := range t.Route.Links {
		ls := states[hop]
		l := hop + 1 // 1-based hop index of Table 2

		// Bandwidth row: b_min,j <= C_l - b_resv,l - Σ b_min,i
		// (availability depends on the connection kind).
		if bmin > ls.availableFor(t.Kind) {
			res.Reason = ReasonBandwidth
			res.FailedLink = link.ID
			return res, nil
		}
		// Jitter row at hop l.
		jit := sched.JitterAtHop(sigma, lmax, bmin, l)
		if jit > t.Req.Jitter {
			res.Reason = reasonJitter
			res.FailedLink = link.ID
			return res, nil
		}
		// Buffer row (forward pass uses the most demanding value the
		// discipline can require; the reverse pass reclaims).
		var buf float64
		switch t.Discipline {
		case sched.DisciplineRCSP:
			d := sched.HopDelay(lmax, bmin, ls.Capacity)
			var prev float64
			if hop > 0 {
				prev = sched.HopDelay(lmax, bmin, states[hop-1].Capacity)
				// If the connection is later admitted, the commitment uses
				// the relaxed upstream delay d'_{l-1}, which exceeds
				// d_{l-1} whenever the delay slack is positive.
				if relaxed := sched.RelaxedHopDelay(prev, t.Req.Delay, delayFloor, sigma, bmin, n); relaxed > prev {
					prev = relaxed
				}
			}
			buf = sched.BufferRCSP(sigma, lmax, t.Req.Bandwidth.Max, prev, d, l)
		default:
			buf = sched.BufferWFQ(sigma, lmax, l)
		}
		if ls.SumBuffer()+buf > ls.BufferCapacity {
			res.Reason = reasonBuffer
			res.FailedLink = link.ID
			return res, nil
		}
		res.Hops = append(res.Hops, hopReport{
			Link:     link.ID,
			HopDelay: sched.HopDelay(lmax, bmin, ls.Capacity),
			Jitter:   jit,
			Loss:     link.LossProb,
		})
		c.hops = res.Hops // keep what append grew for the next Admit
	}

	// ---- Destination node tests ----
	res.DelayFloor = delayFloor
	if res.DelayFloor > t.Req.Delay {
		res.Reason = reasonDelay
		return res, nil
	}
	res.EndToEndJitter = sched.JitterAtHop(sigma, lmax, bmin, n)
	if res.EndToEndJitter > t.Req.Jitter {
		res.Reason = reasonJitter
		return res, nil
	}
	res.EndToEndLoss = sched.LossOnPath(lossPerLink)
	if res.EndToEndLoss > t.Req.Loss {
		res.Reason = reasonLoss
		return res, nil
	}

	// ---- Reverse pass: relax and commit ----
	// Allocation rule of Table 2's bandwidth row.
	alloc := bmin
	if t.Mobility == qos.Static {
		alloc = t.Req.Bandwidth.Clamp(bmin + t.BStamp)
	}
	// The granted rate above b_min must also fit in each link's excess.
	for _, ls := range states {
		if extra := alloc - bmin; extra > 0 {
			avail := ls.unclaimedExcess()
			if extra > avail {
				grant := avail
				if grant < 0 {
					grant = 0
				}
				alloc = bmin + grant
			}
		}
	}
	res.Bandwidth = alloc
	for hop := range states {
		l := hop + 1
		h := &res.Hops[hop]
		h.RelaxedDelay = sched.RelaxedHopDelay(h.HopDelay, t.Req.Delay, res.DelayFloor, sigma, bmin, n)
		switch t.Discipline {
		case sched.DisciplineRCSP:
			var prevRelaxed float64
			if hop > 0 {
				prevRelaxed = res.Hops[hop-1].RelaxedDelay
			}
			h.Buffer = sched.BufferRCSP(sigma, lmax, alloc, prevRelaxed, h.HopDelay, l)
		default:
			h.Buffer = sched.BufferWFQ(sigma, lmax, l)
		}
	}
	// Commit: consume advance reservation for handoffs, then record.
	for hop, ls := range states {
		if t.Kind == KindHandoff || t.Kind == KindPoolClaim {
			take := bmin
			if take > ls.AdvanceReserved {
				take = ls.AdvanceReserved
			}
			ls.AdvanceReserved -= take
		}
		if err := ls.Book(t.ConnID, Alloc{Min: bmin, Cur: alloc, Buffer: res.Hops[hop].Buffer}); err != nil {
			return Result{}, err
		}
	}
	res.Admitted = true
	return res, nil
}
