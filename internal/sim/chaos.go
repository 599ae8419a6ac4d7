package sim

import (
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
// invariants audited when the run drains. It runs under predictive
// reservation, the zero core.Config.Mode.
type chaosConfig struct {
	// Seed drives the run's randomness; every value is valid and
	// distinct, including the zero-value 0.
	Seed int64
	// Portables is the population size (default 16).
	Portables int
	// Duration is the simulated workload time in seconds (default 600).
	Duration float64
	// Settle is the drain horizon after the workload stops — leases
	// expire and re-ADVERTISE repairs drift before the audit (default
	// settleTime).
	Settle float64
	// Plan is a fault-plan spec in the faults.ParsePlan grammar; a
	// `drop any <p>` line makes every control protocol lossy. Empty is
	// valid.
	Plan string
}

// The operating point the chaos and overload scenarios share.
const (
	// faultDwell is the mean cell dwell time, in seconds.
	faultDwell = 120
	// settleTime is the drain horizon after the workload stops, in
	// seconds.
	settleTime = 60
	// holdLease bounds how long a crash-orphaned signaling hold may
	// outlive its session, in seconds.
	holdLease = 10
)

const (
	// chaosBMin and chaosBMax are the chaos scenario's per-connection
	// bandwidth bounds, in bits/s.
	chaosBMin, chaosBMax = 32e3, 128e3
	// chaosReadvertise is the maxmin re-ADVERTISE interval, in seconds,
	// that repairs allocations corrupted by exhausted retries.
	chaosReadvertise = 5
)

func (c chaosConfig) withDefaults() chaosConfig {
	if c.Portables <= 0 {
		c.Portables = 16
	}
	if c.Duration <= 0 {
		c.Duration = 600
	}
	if c.Settle <= 0 {
		c.Settle = settleTime
	}
	return c
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
// leaked holds, orphaned allocs, maxmin re-convergence within the
// auditor's default gap) to a manager's bus — shared by the chaos and
// overload harnesses.
func newChaosAuditor(mgr *core.Manager) *faults.Auditor {
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
	}
	aud.Watch(mgr.Bus)
	return aud
}

// runChaos executes one audited chaos scenario, streaming its event
// trace to traceW when it is non-nil.
func runChaos(cfg chaosConfig, traceW io.Writer) (chaosResult, error) {
	cfg = cfg.withDefaults()
	plan, err := faults.ParsePlan(strings.NewReader(cfg.Plan))
	if err != nil {
		return chaosResult{}, err
	}
	env, err := topology.BuildCampus()
	if err != nil {
		return chaosResult{}, err
	}
	trace, err := randomWalk(env.Universe, "p%02d", cfg.Portables, faultDwell, cfg.Duration, cfg.Seed)
	if err != nil {
		return chaosResult{}, err
	}
	w := walk{
		env: env,
		cfg: core.Config{
			Seed:   cfg.Seed,
			Faults: plan,
			Signal: signal.Options{HoldLease: holdLease},
			Proto:  maxmin.ProtocolOptions{ReadvertisePeriod: chaosReadvertise},
		},
		trace: trace, req: walkRequest(chaosBMin, chaosBMax),
		open: openSignaled, horizon: cfg.Duration + cfg.Settle, traceW: traceW,
	}
	mgr, err := w.start()
	if err != nil {
		return chaosResult{}, err
	}
	aud := newChaosAuditor(mgr)
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
