package sim

import (
	"fmt"
	"io"
	"strings"

	"armnet/internal/core"
	"armnet/internal/eventbus"
	"armnet/internal/mobility"
	"armnet/internal/overload"
	"armnet/internal/randx"
	"armnet/internal/signal"
	"armnet/internal/topology"
)

// OverloadConfig drives the campus load-ramp scenario: a population of
// portables arrives staggered over a ramp window, each opening several
// signaled connections sized so the offered load exceeds the capacity
// region, with bounded retries keeping the pressure on. The overload
// policy responds in stages; an auditor verifies the degrade-before-drop
// invariant; a fault plan composes freely (chaos + overload together).
type OverloadConfig struct {
	// Seed drives the run's randomness; every value is valid and
	// distinct, including the zero-value 0.
	Seed int64
	// Portables is the population size (default 40).
	Portables int
	// Duration is the simulated workload time in seconds (default 420).
	Duration float64
	// Ramp is the arrival window: portable i arrives at Ramp·i/N
	// (default 240).
	Ramp float64
	// Settle is the drain horizon after the workload stops (default 60).
	Settle float64
	// Dwell is the mean cell dwell time (default 120 s).
	Dwell float64
	// Tth is the static/mobile classification threshold (default 60 s —
	// aggressive, so the ramp produces adaptable static connections
	// whose excess the degrade cascades can reclaim).
	Tth float64
	// ConnsPer is how many connections each portable opens on arrival
	// (default 2).
	ConnsPer int
	// Lifetime closes each admitted connection after this long,
	// creating the churn that lets cells de-escalate (default 150 s; a
	// negative value keeps connections open forever).
	Lifetime float64
	// Retries re-attempts a failed or shed setup (default 2).
	Retries int
	// RetryBackoff is the delay before a retry (default 7 s).
	RetryBackoff float64
	// Policy is the overload policy in the overload.ParsePolicy
	// grammar. Empty disables the subsystem (the nil-policy baseline);
	// the literal "default" selects overload.Default().
	Policy string
	// Plan is a fault-plan spec in the faults.ParsePlan grammar,
	// composed with LossRate exactly as in ChaosConfig.
	Plan string
	// LossRate, when positive, adds a `drop any LossRate` rule.
	LossRate float64
	// Mode selects the advance-reservation strategy.
	Mode core.ReservationMode
	// BMin/BMax are the per-connection bandwidth bounds (defaults
	// 160k/320k — a tenth of a campus downlink per minimum, so nine
	// busy cells saturate).
	BMin, BMax float64
	// HoldLease bounds crash-orphaned signaling holds (default 10 s).
	HoldLease float64
	// GapTol bounds the audited maxmin convergence gap (default 1e-6).
	GapTol float64
}

func (c OverloadConfig) withDefaults() OverloadConfig {
	if c.Portables <= 0 {
		c.Portables = 40
	}
	if c.Duration <= 0 {
		c.Duration = 420
	}
	if c.Ramp <= 0 {
		c.Ramp = 240
	}
	if c.Settle <= 0 {
		c.Settle = 60
	}
	if c.Dwell <= 0 {
		c.Dwell = 120
	}
	if c.Tth <= 0 {
		c.Tth = 60
	}
	if c.ConnsPer <= 0 {
		c.ConnsPer = 2
	}
	if c.Lifetime == 0 {
		c.Lifetime = 150
	}
	if c.Retries < 0 {
		c.Retries = 0
	} else if c.Retries == 0 {
		c.Retries = 2
	}
	if c.RetryBackoff <= 0 {
		c.RetryBackoff = 7
	}
	if c.BMin <= 0 {
		c.BMin = 160e3
	}
	if c.BMax <= 0 {
		c.BMax = 320e3
	}
	if c.HoldLease <= 0 {
		c.HoldLease = 10
	}
	return c
}

// policy resolves the Policy spec; nil means disabled.
func (c OverloadConfig) policy() (*overload.Policy, error) {
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

// OverloadResult is one audited load-ramp run.
type OverloadResult struct {
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
	// FaultsInjected and Retransmits mirror ChaosResult when a fault
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

// RunOverload executes one audited load-ramp scenario.
func RunOverload(cfg OverloadConfig) (OverloadResult, error) {
	return runOverload(cfg, nil)
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

func runOverload(cfg OverloadConfig, traceW io.Writer) (OverloadResult, error) {
	cfg = cfg.withDefaults()
	pol, err := cfg.policy()
	if err != nil {
		return OverloadResult{}, err
	}
	plan, err := faultPlan(cfg.Plan, cfg.LossRate)
	if err != nil {
		return OverloadResult{}, err
	}
	env, err := topology.BuildCampus()
	if err != nil {
		return OverloadResult{}, err
	}
	// The ramp: portable i's whole walk — initial placement included —
	// shifts by Ramp·i/N, so arrivals spread over the ramp window and
	// the offered load climbs toward its peak. Per-portable RNGs keep
	// every walk independent of the population size.
	trace := &mobility.Trace{}
	for i := 0; i < cfg.Portables; i++ {
		offset := cfg.Ramp * float64(i) / float64(cfg.Portables)
		horizon := cfg.Duration - offset
		if horizon <= 0 {
			continue
		}
		one, err := mobility.RandomWalk(env.Universe, []string{fmt.Sprintf("p%02d", i)}, cfg.Dwell, horizon, randx.New(cfg.Seed+1000+int64(i)*7919))
		if err != nil {
			return OverloadResult{}, err
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
			Tth:      cfg.Tth,
			Mode:     cfg.Mode,
			Faults:   plan,
			Overload: pol,
			Signal:   signal.Options{HoldLease: cfg.HoldLease},
		},
		trace: trace, req: walkRequest(cfg.BMin, cfg.BMax),
		horizon: cfg.Duration + cfg.Settle, traceW: traceW,
	}
	mgr, err := w.start()
	if err != nil {
		return OverloadResult{}, err
	}
	simulator, req := mgr.Sim, w.req
	// openWith retries shed, fast-failed, and rejected setups a bounded
	// number of times — the impatient-user behavior that keeps pressure
	// on the control plane during the ramp.
	var openWith func(portable string, attempt int)
	openWith = func(portable string, attempt int) {
		retry := func() {
			if attempt < cfg.Retries {
				simulator.PostAfter(cfg.RetryBackoff, func() { openWith(portable, attempt+1) })
			}
		}
		err := mgr.OpenConnectionAsync(portable, req, func(connID string, err error) {
			if err != nil {
				retry()
				return
			}
			if cfg.Lifetime > 0 {
				simulator.PostAfter(cfg.Lifetime, func() { _ = mgr.CloseConnection(connID) })
			}
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
		for c := 0; c < cfg.ConnsPer; c++ {
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
		auditors = append(auditors, newChaosAuditor(mgr, cfg.GapTol).CheckFinal)
	}
	violations, err := w.run(auditors...)
	if err != nil {
		return OverloadResult{}, err
	}
	ctr := mgr.Met.Counter
	return OverloadResult{
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
