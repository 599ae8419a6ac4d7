package sim

import (
	"fmt"
	"io"
	"strings"

	"armnet/internal/core"
	"armnet/internal/faults"
	"armnet/internal/maxmin"
	"armnet/internal/signal"
	"armnet/internal/topology"
)

// chaosConfig drives the chaos scenario: the campus workload with every
// connection opened through the signaling plane, a fault plan injecting
// control-message loss and component crashes, and the recovery
// invariants audited when the run drains.
type chaosConfig struct {
	// Seed drives the run's randomness; every value is valid and
	// distinct, including the zero-value 0.
	Seed int64
	// Portables is the population size (default 16).
	Portables int
	// Duration is the simulated workload time in seconds (default 600).
	Duration float64
	// Settle is the drain horizon after the workload stops — leases
	// expire and re-ADVERTISE repairs drift before the audit (default 60).
	Settle float64
	// Dwell is the mean cell dwell time (default 120 s).
	Dwell float64
	// LossRate, when positive, adds a `drop any LossRate` rule — the
	// quick way to make every control protocol lossy.
	LossRate float64
	// Plan is a fault-plan spec in the faults.ParsePlan grammar,
	// composed with the LossRate rule. Empty is valid.
	Plan string
	// Mode selects the advance-reservation strategy.
	Mode core.ReservationMode
	// BMin/BMax are the per-connection bandwidth bounds (defaults
	// 32k/128k).
	BMin, BMax float64
	// HoldLease bounds how long a crash-orphaned signaling hold may
	// outlive its session (default 10 s).
	HoldLease float64
	// ReadvertisePeriod is the maxmin re-ADVERTISE interval that repairs
	// allocations corrupted by exhausted retries (default 5 s).
	ReadvertisePeriod float64
	// GapTol bounds the audited maxmin-vs-oracle convergence gap in
	// bits/s (default 1e-6).
	GapTol float64
}

func (c chaosConfig) withDefaults() chaosConfig {
	if c.Portables <= 0 {
		c.Portables = 16
	}
	if c.Duration <= 0 {
		c.Duration = 600
	}
	if c.Settle <= 0 {
		c.Settle = 60
	}
	if c.Dwell <= 0 {
		c.Dwell = 120
	}
	if c.BMin <= 0 {
		c.BMin = 32e3
	}
	if c.BMax <= 0 {
		c.BMax = 128e3
	}
	if c.HoldLease <= 0 {
		c.HoldLease = 10
	}
	if c.ReadvertisePeriod <= 0 {
		c.ReadvertisePeriod = 5
	}
	return c
}

// faultPlan composes a fault-plan spec in the faults.ParsePlan grammar
// with the loss-rate shorthand, which adds a `drop any lossRate` rule.
func faultPlan(spec string, lossRate float64) (*faults.Plan, error) {
	p, err := faults.ParsePlan(strings.NewReader(spec))
	if err != nil {
		return nil, err
	}
	if lossRate > 0 {
		if lossRate > 1 {
			return nil, fmt.Errorf("sim: loss rate %v outside [0,1]", lossRate)
		}
		p.Rules = append(p.Rules, faults.Rule{Proto: "any", Action: "drop", Prob: lossRate})
	}
	return p, nil
}

// chaosResult is one audited chaos run.
type chaosResult struct {
	CampusResult
	// FaultsInjected counts message faults fired plus component faults
	// executed (restorations included).
	FaultsInjected int64
	// Retransmits counts control messages resent after a loss.
	Retransmits int64
	// ReclaimedHolds counts crash-orphaned reservations reclaimed by
	// lease expiry.
	ReclaimedHolds int64
	// ReadvertiseKicks counts connections kicked by the periodic
	// re-ADVERTISE drift check.
	ReadvertiseKicks int64
	// ConvergenceGap is the final max |protocol − water-filling oracle|
	// rate distance in bits/s.
	ConvergenceGap float64
	// Violations lists every recovery-invariant failure the auditor saw
	// (empty on a clean run).
	Violations []string
	// Events is the total discrete events executed.
	Events uint64
}

// newChaosAuditor wires the fault-recovery auditor (conservation,
// leaked holds, orphaned allocs, maxmin re-convergence) to a manager's
// bus — shared by the chaos and overload harnesses.
func newChaosAuditor(mgr *core.Manager, gapTol float64) *faults.Auditor {
	gap := func() float64 {
		// Rival allocators have no WaterFill oracle: the maxmin
		// re-convergence audit only applies to the paper's protocol.
		if mgr.Adpt.Maxmin() == nil {
			return 0
		}
		return mgr.Adpt.Maxmin().OracleGap()
	}
	aud := &faults.Auditor{
		Ledger:         mgr.Ledger(),
		PendingHolds:   mgr.SignalPlane().PendingTotal,
		LiveConns:      mgr.ConnIDs,
		ConvergenceGap: gap,
		GapTol:         gapTol,
	}
	aud.Watch(mgr.Bus)
	return aud
}

// runChaos executes one audited chaos scenario, streaming its event
// trace to traceW when it is non-nil.
func runChaos(cfg chaosConfig, traceW io.Writer) (chaosResult, error) {
	cfg = cfg.withDefaults()
	plan, err := faultPlan(cfg.Plan, cfg.LossRate)
	if err != nil {
		return chaosResult{}, err
	}
	env, err := topology.BuildCampus()
	if err != nil {
		return chaosResult{}, err
	}
	trace, err := randomWalk(env.Universe, "p%02d", cfg.Portables, cfg.Dwell, cfg.Duration, cfg.Seed)
	if err != nil {
		return chaosResult{}, err
	}
	w := walk{
		env: env,
		cfg: core.Config{
			Seed:   cfg.Seed,
			Mode:   cfg.Mode,
			Faults: plan,
			Signal: signal.Options{HoldLease: cfg.HoldLease},
			Proto:  maxmin.ProtocolOptions{ReadvertisePeriod: cfg.ReadvertisePeriod},
		},
		trace: trace, req: walkRequest(cfg.BMin, cfg.BMax),
		open: openSignaled, horizon: cfg.Duration + cfg.Settle, traceW: traceW,
	}
	mgr, err := w.start()
	if err != nil {
		return chaosResult{}, err
	}
	aud := newChaosAuditor(mgr, cfg.GapTol)
	violations, err := w.run(aud.CheckFinal)
	if err != nil {
		return chaosResult{}, err
	}
	ctr := mgr.Met.Counter
	return chaosResult{
		CampusResult:     campusResult(mgr),
		FaultsInjected:   ctr.Get(core.CtrFaultsInjected),
		Retransmits:      ctr.Get(core.CtrRetransmits),
		ReclaimedHolds:   ctr.Get(core.CtrReclaimedHolds),
		ReadvertiseKicks: ctr.Get(core.CtrReadvertises),
		ConvergenceGap:   aud.ConvergenceGap(),
		Violations:       violations,
		Events:           mgr.Sim.Fired(),
	}, nil
}
