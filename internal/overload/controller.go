package overload

import (
	"errors"
	"sort"

	"armnet/internal/admission"
	"armnet/internal/des"
	"armnet/internal/eventbus"
	"armnet/internal/topology"
)

// ErrBusy is the typed fast-fail error returned while the signaling
// circuit breaker refuses new setups.
var ErrBusy = errors.New("overload: signaling busy")

// stageLevel is a cell's escalation level. Stages strictly order the
// responses: each stage implies everything the previous ones do.
type stageLevel int

const (
	// stageNormal takes no action.
	stageNormal stageLevel = iota
	// stageDegrade cascades static connections toward b_min and arms
	// the token-bucket governor.
	stageDegrade
	// stageShedStatic additionally sheds new-static setups.
	stageShedStatic
	// stageShedMobile sheds every new setup; only handoffs pass.
	stageShedMobile
)

var stageNames = [...]string{"normal", "degrade", "shed-static", "shed-mobile"}

// String returns the stable wire name used in events and traces.
func (s stageLevel) String() string {
	if s < 0 || int(s) >= len(stageNames) {
		return "unknown"
	}
	return stageNames[s]
}

// Class is the priority class of a setup attempt, best first: the paper
// ranks dropping an ongoing connection's handoff as worse than blocking
// a new one, and mobile users notice blocking more than static ones.
type Class int

const (
	// classHandoff is an ongoing connection following its portable.
	classHandoff Class = iota
	// ClassNewMobile is a new connection from a mobile portable.
	ClassNewMobile
	// ClassNewStatic is a new connection from a static portable.
	ClassNewStatic
)

var classNames = [...]string{"handoff", "new-mobile", "new-static"}

// String returns the stable wire name used in events and traces.
func (c Class) String() string {
	if c < 0 || int(c) >= len(classNames) {
		return "unknown"
	}
	return classNames[c]
}

// CellLink names one monitored cell and its wireless downlink — the
// contended resource whose ledger state the detector samples.
type CellLink struct {
	Cell topology.CellID
	Link topology.LinkID
}

// Hooks are the integration points the harness wires up; the package
// itself stays decoupled from core/signal/adapt. Any hook may be nil.
type Hooks struct {
	// QueueDepth returns the signaling setup-queue depth.
	QueueDepth func() int
	// Retransmits returns the cumulative control-retransmission count;
	// the controller differentiates it per sample for breaker pressure.
	Retransmits func() int
	// Degrade runs a degrade cascade on the cell's downlink and returns
	// the number of connections newly capped at b_min.
	Degrade func(cell topology.CellID, link topology.LinkID) int
	// Restore lifts the cascade when the cell de-escalates to normal.
	Restore func(cell topology.CellID, link topology.LinkID) int
}

// cellState is the per-cell detector and governor state.
type cellState struct {
	link   topology.LinkID
	util   float64 // EWMA of (ΣMin + b_resv) / Capacity
	seeded bool
	stage  stageLevel
	tokens float64
	filled float64 // last refill time
}

// Controller runs the staged overload response for a set of cells. All
// state transitions happen on the simulator clock (sampling ticks and
// setup attempts), so behavior is deterministic.
type Controller struct {
	sim   *des.Simulator
	lg    *admission.Ledger
	bus   *eventbus.Bus
	pol   Policy
	hooks Hooks

	cells   []topology.CellID
	state   map[topology.CellID]*cellState
	breaker *circuitBreaker

	lastRetrans int

	// Sheds counts refused setups; Cascades counts connections degraded.
	Sheds, Cascades int
}

// NewController builds a controller over the ledger. Start must be
// called to register cells and arm the sampling ticker.
func NewController(sim *des.Simulator, lg *admission.Ledger, bus *eventbus.Bus, pol Policy, hooks Hooks) *Controller {
	c := &Controller{
		sim:   sim,
		lg:    lg,
		bus:   bus,
		pol:   pol,
		hooks: hooks,
		state: make(map[topology.CellID]*cellState),
	}
	c.breaker = newBreaker(sim, bus, pol)
	return c
}

// Start registers the monitored cells (sampled in sorted order, so the
// event stream is independent of map iteration) and arms the periodic
// detector.
func (c *Controller) Start(cells []CellLink) {
	for _, cl := range cells {
		if _, ok := c.state[cl.Cell]; ok {
			continue
		}
		c.state[cl.Cell] = &cellState{link: cl.Link}
		c.cells = append(c.cells, cl.Cell)
	}
	sort.Slice(c.cells, func(i, j int) bool { return c.cells[i] < c.cells[j] })
	c.sim.Every(c.pol.Sample, c.sample)
}

// sample is the periodic detector: it folds the instantaneous committed
// pressure of every monitored downlink into the EWMA, applies the stage
// machine, and feeds retransmission pressure to the breaker.
func (c *Controller) sample() {
	q := 0
	if c.hooks.QueueDepth != nil {
		q = c.hooks.QueueDepth()
	}
	queueHot := c.pol.QueueDepth > 0 && q >= c.pol.QueueDepth
	for _, cell := range c.cells {
		st := c.state[cell]
		raw := c.pressure(st.link)
		if !st.seeded {
			st.util, st.seeded = raw, true
		} else {
			st.util += float64(c.pol.Alpha * (raw - st.util))
		}
		c.transition(cell, st, queueHot, q)
	}
	if c.hooks.Retransmits != nil {
		cur := c.hooks.Retransmits()
		c.breaker.noteRetransmits(cur - c.lastRetrans)
		c.lastRetrans = cur
	}
}

// pressure is the instantaneous committed utilization of a link: the
// guaranteed minima plus advance reservations over effective capacity.
// Excess (Cur − Min) is deliberately excluded — adaptation reclaims it
// without loss, so it is headroom, not pressure. The ratio exceeds 1
// when a capacity drop strands committed minima.
func (c *Controller) pressure(link topology.LinkID) float64 {
	ls := c.lg.Link(link)
	if ls == nil || ls.Capacity <= 0 {
		return 0
	}
	return (ls.SumMin() + ls.AdvanceReserved) / ls.Capacity
}

// transition applies the hysteresis stage machine and runs the entry /
// exit actions for the degrade band.
func (c *Controller) transition(cell topology.CellID, st *cellState, queueHot bool, q int) {
	next := c.pol.stageFor(st.stage, st.util)
	if queueHot && next < stageShedMobile {
		next++
	}
	if next == st.stage {
		return
	}
	prev := st.stage
	st.stage = next
	eventbus.Pub(c.bus, eventbus.OverloadStage{
		Cell: string(cell), From: prev.String(), To: next.String(),
		Util: st.util, Queue: q,
	})
	if prev < stageDegrade && next >= stageDegrade {
		// Entering overload: the bucket starts full, and the cascade
		// frees excess before anything needs shedding.
		st.tokens = c.pol.BucketBurst
		st.filled = c.sim.Now()
		if c.hooks.Degrade != nil {
			c.Cascades += c.hooks.Degrade(cell, st.link)
		}
	}
	if prev >= stageDegrade && next < stageDegrade && c.hooks.Restore != nil {
		c.hooks.Restore(cell, st.link)
	}
}

// stageFor computes the next stage from the smoothed utilization:
// escalation jumps straight to the highest stage whose high-water mark
// is crossed; de-escalation steps down one stage per sample and only
// once util has fallen below the current stage's low-water mark.
func (p *Policy) stageFor(cur stageLevel, util float64) stageLevel {
	next := stageNormal
	if util >= p.DegradeHigh {
		next = stageDegrade
	}
	if util >= p.ShedStaticHigh {
		next = stageShedStatic
	}
	if util >= p.ShedMobileHigh {
		next = stageShedMobile
	}
	if next >= cur {
		return next
	}
	if util < p.lowFor(cur) {
		return cur - 1
	}
	return cur
}

func (p *Policy) lowFor(s stageLevel) float64 {
	switch s {
	case stageDegrade:
		return p.DegradeLow
	case stageShedStatic:
		return p.ShedStaticLow
	default:
		return p.ShedMobileLow
	}
}

// AllowSetup decides whether a setup attempt may proceed, in priority
// order: handoffs always pass; the breaker fails everything else fast
// while open; the cell's stage sheds the lowest classes first; the
// token bucket meters what remains during overload. A refusal publishes
// a SetupShed event and returns the machine-readable reason.
func (c *Controller) AllowSetup(class Class, cell topology.CellID, portable string) (bool, string) {
	if class == classHandoff {
		return true, ""
	}
	if !c.breaker.allow() {
		return false, c.shed(portable, cell, class, "breaker-open")
	}
	st := c.state[cell]
	if st == nil {
		return true, ""
	}
	if st.stage >= stageShedMobile {
		return false, c.shed(portable, cell, class, "shed-mobile")
	}
	if st.stage >= stageShedStatic && class == ClassNewStatic {
		return false, c.shed(portable, cell, class, "shed-static")
	}
	if c.pol.BucketRate > 0 && st.stage >= stageDegrade {
		st.tokens += float64((c.sim.Now() - st.filled) * c.pol.BucketRate)
		if st.tokens > c.pol.BucketBurst {
			st.tokens = c.pol.BucketBurst
		}
		st.filled = c.sim.Now()
		if st.tokens < 1 {
			return false, c.shed(portable, cell, class, "bucket")
		}
		st.tokens--
	}
	return true, ""
}

func (c *Controller) shed(portable string, cell topology.CellID, class Class, reason string) string {
	c.Sheds++
	eventbus.Pub(c.bus, eventbus.SetupShed{
		Portable: portable, Cell: string(cell),
		Class: class.String(), Reason: reason,
	})
	return reason
}

// RecordSetupOutcome feeds one finished setup session (failed or not)
// to the circuit breaker. The integration layer calls it from the
// signaling completion path.
func (c *Controller) RecordSetupOutcome(failed bool) {
	c.breaker.record(failed)
}
