package sim

import (
	"fmt"
	"io"
	"strings"

	"armnet/internal/core"
	"armnet/internal/eventbus"
	"armnet/internal/faults"
	"armnet/internal/mobility"
	"armnet/internal/overload"
	"armnet/internal/randx"
	"armnet/internal/signal"
	"armnet/internal/topology"
)

// overloadConfig drives the campus load-ramp scenario: a population of
// portables arrives staggered over a ramp window, each opening several
// signaled connections sized so the offered load exceeds the capacity
// region, with bounded retries keeping the pressure on. The overload
// policy responds in stages; an auditor verifies the degrade-before-drop
// invariant; a fault plan composes freely (chaos + overload together).
// It runs under predictive reservation, the zero core.Config.Mode.
type overloadConfig struct {
	// Seed drives the run's randomness; every value is valid and
	// distinct, including the zero-value 0.
	Seed int64
	// Policy is the overload policy in the overload.ParsePolicy
	// grammar. Empty disables the subsystem (the nil-policy baseline);
	// the literal "default" selects overload.Default().
	Policy string
	// Plan is a fault-plan spec in the faults.ParsePlan grammar, as in
	// chaosConfig.
	Plan string
}

// The load ramp's fixed operating point.
const (
	// overloadPortables arrive over overloadRamp seconds: portable i at
	// overloadRamp·i/overloadPortables.
	overloadPortables = 40
	overloadRamp      = 240
	// overloadDuration is the simulated workload time, in seconds.
	overloadDuration = 420
	// overloadTth is the static/mobile classification threshold, in
	// seconds — aggressive, so the ramp produces adaptable static
	// connections whose excess the degrade cascades can reclaim.
	overloadTth = 60
	// overloadConnsPer is how many connections each portable opens on
	// arrival.
	overloadConnsPer = 2
	// overloadLifetime closes each admitted connection after this many
	// seconds, creating the churn that lets cells de-escalate.
	overloadLifetime = 150
	// overloadRetries re-attempts a failed or shed setup, each
	// overloadRetryBackoff seconds after the failure.
	overloadRetries      = 2
	overloadRetryBackoff = 7
	// overloadBMin and overloadBMax are the per-connection bandwidth
	// bounds, in bits/s — a tenth of a campus downlink per minimum, so
	// nine busy cells saturate.
	overloadBMin, overloadBMax = 160e3, 320e3
)

// policy resolves the Policy spec; nil means disabled.
func (c overloadConfig) policy() (*overload.Policy, error) {
	spec := strings.TrimSpace(c.Policy)
	if spec == "" {
		return nil, nil
	}
	if spec == "default" {
		p := overload.Default()
		return &p, nil
	}
	return overload.ParsePolicy(strings.NewReader(c.Policy))
}

// overloadResult is one audited load-ramp run.
type overloadResult struct {
	CampusResult
	// Sheds counts setups refused by stage or bucket (breaker
	// fast-fails excluded).
	Sheds int64
	// DegradeCascades counts connections forced to b_min.
	DegradeCascades int64
	// BreakerTrips counts transitions into the open state.
	BreakerTrips int64
	// BreakerFastFails counts setups refused while the breaker was open
	// or out of half-open probes.
	BreakerFastFails int64
	// StageChanges counts OverloadStage transitions across all cells.
	StageChanges int64
	// BreakerPath is the ordered "from>to" breaker transition list —
	// the determinism witness for open/half-open/close cycling.
	BreakerPath []string
	// PeakStage is the highest stage any cell reached.
	PeakStage string
	// FaultsInjected and Retransmits mirror chaosResult when a fault
	// plan is composed in.
	FaultsInjected int64
	Retransmits    int64
	// Violations lists every invariant failure (degrade-before-drop
	// from the overload auditor; recovery invariants from the fault
	// auditor when a plan is armed). Empty on a clean run.
	Violations []string
	// Events is the total discrete events executed.
	Events uint64
}

// overloadCollector folds the overload event kinds into the summary —
// stage churn, the breaker's transition path, and the peak stage.
type overloadCollector struct {
	stageChanges int64
	breakerPath  []string
	peak         string
	peakOrd      int
}

func newOverloadCollector(bus *eventbus.Bus) *overloadCollector {
	c := &overloadCollector{peak: "normal"}
	bus.Subscribe(c.observe, eventbus.KindOverloadStage, eventbus.KindBreakerState)
	return c
}

var stageOrder = map[string]int{"normal": 0, "degrade": 1, "shed-static": 2, "shed-mobile": 3}

func (c *overloadCollector) observe(r eventbus.Record) {
	switch ev := r.Event.(type) {
	case eventbus.OverloadStage:
		c.stageChanges++
		if ord := stageOrder[ev.To]; ord > c.peakOrd {
			c.peakOrd, c.peak = ord, ev.To
		}
	case eventbus.BreakerState:
		c.breakerPath = append(c.breakerPath, ev.From+">"+ev.To)
	}
}

// runOverload executes one audited load-ramp scenario, streaming its
// event trace to traceW when it is non-nil.
func runOverload(cfg overloadConfig, traceW io.Writer) (overloadResult, error) {
	pol, err := cfg.policy()
	if err != nil {
		return overloadResult{}, err
	}
	plan, err := faults.ParsePlan(strings.NewReader(cfg.Plan))
	if err != nil {
		return overloadResult{}, err
	}
	env, err := topology.BuildCampus()
	if err != nil {
		return overloadResult{}, err
	}
	// The ramp: portable i's whole walk — initial placement included —
	// shifts by overloadRamp·i/overloadPortables, so arrivals spread over the ramp window and
	// the offered load climbs toward its peak. Per-portable RNGs keep
	// every walk independent of the population size.
	trace := &mobility.Trace{}
	for i := 0; i < overloadPortables; i++ {
		offset := overloadRamp * float64(i) / float64(overloadPortables)
		horizon := overloadDuration - offset
		if horizon <= 0 {
			continue
		}
		one, err := mobility.RandomWalk(env.Universe, []string{fmt.Sprintf("p%02d", i)}, faultDwell, horizon, randx.New(cfg.Seed+1000+int64(i)*7919))
		if err != nil {
			return overloadResult{}, err
		}
		for _, mv := range one.Moves {
			mv.Time += offset
			trace.Append(mv)
		}
	}
	w := walk{
		env: env,
		cfg: core.Config{
			Seed:     cfg.Seed,
			Tth:      overloadTth,
			Faults:   plan,
			Overload: pol,
			Signal:   signal.Options{HoldLease: holdLease},
		},
		trace: trace, req: walkRequest(overloadBMin, overloadBMax),
		horizon: overloadDuration + settleTime, traceW: traceW,
	}
	mgr, err := w.start()
	if err != nil {
		return overloadResult{}, err
	}
	simulator, req := mgr.Sim, w.req
	// openWith retries shed, fast-failed, and rejected setups a bounded
	// number of times — the impatient-user behavior that keeps pressure
	// on the control plane during the ramp.
	var openWith func(portable string, attempt int)
	openWith = func(portable string, attempt int) {
		retry := func() {
			if attempt < overloadRetries {
				simulator.PostAfter(overloadRetryBackoff, func() { openWith(portable, attempt+1) })
			}
		}
		err := mgr.OpenConnectionAsync(portable, req, func(connID string, err error) {
			if err != nil {
				retry()
				return
			}
			simulator.PostAfter(overloadLifetime, func() { _ = mgr.CloseConnection(connID) })
		})
		if err != nil {
			// Synchronous refusal: unknown portable (gone) is final;
			// sheds and breaker fast-fails retry like any failure.
			if mgr.Portable(portable) != nil {
				retry()
			}
		}
	}
	w.open = func(_ *walk, portable string) {
		for c := 0; c < overloadConnsPer; c++ {
			openWith(portable, 0)
		}
	}
	ocol := newOverloadCollector(mgr.Bus)
	var auditors []func() []string
	if pol != nil {
		oaud := mgr.OverloadAuditor()
		auditors = append(auditors, func() []string { return oaud.Violations })
	}
	if !plan.Empty() {
		auditors = append(auditors, newChaosAuditor(mgr).CheckFinal)
	}
	violations, err := w.run(auditors...)
	if err != nil {
		return overloadResult{}, err
	}
	ctr := mgr.Met.Counter
	return overloadResult{
		CampusResult:     campusResult(mgr),
		Sheds:            ctr.Get(core.CtrShedSetups),
		DegradeCascades:  ctr.Get(core.CtrDegradeCascades),
		BreakerTrips:     ctr.Get(core.CtrBreakerTrips),
		BreakerFastFails: ctr.Get(core.CtrBreakerFastFails),
		StageChanges:     ocol.stageChanges,
		BreakerPath:      ocol.breakerPath,
		PeakStage:        ocol.peak,
		FaultsInjected:   ctr.Get(core.CtrFaultsInjected),
		Retransmits:      ctr.Get(core.CtrRetransmits),
		Violations:       violations,
		Events:           simulator.Fired(),
	}, nil
}
