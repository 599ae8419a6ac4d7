package sim

import (
	"context"
	"fmt"

	"armnet/internal/clock"
	"armnet/internal/des"
	"armnet/internal/maxmin"
	"armnet/internal/randx"
	"armnet/internal/runner"
	"armnet/internal/sortx"
)

// Theorem1Config drives the convergence study of the event-driven
// adaptation algorithm.
type Theorem1Config struct {
	// Seed drives the run's randomness; every value is valid and
	// distinct, including 0.
	Seed int64
	// Instances is the number of random problem instances (default 20).
	Instances int
	// MaxLinks and MaxConns bound instance size (defaults 4 and 6).
	MaxLinks, MaxConns int
	// Refined selects the M(l) refinement.
	Refined bool
	// Perturb additionally changes one link's capacity after initial
	// convergence and re-measures (the Theorem's instability→stability
	// transition).
	Perturb bool
}

func (c Theorem1Config) withDefaults() Theorem1Config {
	if c.Instances <= 0 {
		c.Instances = 20
	}
	if c.MaxLinks <= 0 {
		c.MaxLinks = 4
	}
	if c.MaxConns <= 0 {
		c.MaxConns = 6
	}
	return c
}

// Theorem1Result aggregates the convergence study.
type Theorem1Result struct {
	Refined bool
	// Instances actually run.
	Instances int
	// Converged counts instances whose final rates satisfied the maxmin
	// oracle within tolerance.
	Converged int
	// TotalMessages is the control-message hop count across instances.
	TotalMessages int
	// TotalSessions counts adaptation sessions.
	TotalSessions int
	// MaxSyncRounds is the worst synchronous-round count observed by
	// the round-abstracted solver on the same instances.
	MaxSyncRounds int
	// WorstDiff is the largest rate deviation from the centralized
	// solution across instances.
	WorstDiff float64
}

// theorem1Trial is the outcome of one independent problem instance.
type theorem1Trial struct {
	converged  bool
	diff       float64
	messages   int
	sessions   int
	syncRounds int
}

// RunTheorem1 generates random allocation problems, runs the event-driven
// protocol to quiescence on each, and verifies the resulting rates
// against the centralized water-filling solution — the empirical check of
// Theorem 1. With Perturb it also exercises the steady-state→perturbed→
// steady-state transition the theorem bounds. Each instance is one trial:
// it derives its own RNG from (cfg.Seed, instance index) via
// runner.SplitSeed and builds a private simulator and protocol, so the
// aggregated result is bit-identical at any worker count.
func RunTheorem1(ctx context.Context, cfg Theorem1Config, workers int) (Theorem1Result, runner.Stats, error) {
	cfg = cfg.withDefaults()
	res := Theorem1Result{Refined: cfg.Refined, Instances: cfg.Instances}
	trials, st, err := runner.Map(ctx, workers, cfg.Instances, func(_ context.Context, i int) (theorem1Trial, error) {
		return runTheorem1Instance(cfg, runner.SplitSeed(cfg.Seed, i))
	})
	if err != nil {
		return res, st, err
	}
	for _, tr := range trials {
		if tr.converged {
			res.Converged++
		}
		if tr.diff > res.WorstDiff {
			res.WorstDiff = tr.diff
		}
		res.TotalMessages += tr.messages
		res.TotalSessions += tr.sessions
		if tr.syncRounds > res.MaxSyncRounds {
			res.MaxSyncRounds = tr.syncRounds
		}
	}
	return res, st, nil
}

// runTheorem1Instance runs one self-contained convergence trial: generate
// a random instance from the trial seed, drive the event-driven protocol
// to quiescence (optionally through a capacity perturbation), and compare
// the settled rates against the water-filling oracle.
func runTheorem1Instance(cfg Theorem1Config, seed int64) (theorem1Trial, error) {
	rng := randx.New(seed)
	p := randomMaxminProblem(rng, 1+rng.Intn(cfg.MaxLinks), 1+rng.Intn(cfg.MaxConns))
	simulator := des.New()
	pr := maxmin.NewProtocolOn(clock.Sim(simulator), maxmin.ProtocolOptions{Refined: cfg.Refined})
	for _, l := range sortx.Keys(p.Capacity) {
		if err := pr.AddLink(l, p.Capacity[l]); err != nil {
			return theorem1Trial{}, err
		}
	}
	for _, c := range p.Conns {
		if err := pr.AddConn(c); err != nil {
			return theorem1Trial{}, err
		}
	}
	pr.KickAll()
	if err := simulator.RunUntil(500); err != nil {
		return theorem1Trial{}, err
	}
	if cfg.Perturb {
		links := sortx.Keys(p.Capacity)
		pick := links[rng.Intn(len(links))]
		newCap := p.Capacity[pick] * (0.5 + rng.Float64())
		p.Capacity[pick] = newCap
		if _, err := pr.TriggerCapacityChange(pick, newCap); err != nil {
			return theorem1Trial{}, err
		}
		if err := simulator.RunUntil(1500); err != nil {
			return theorem1Trial{}, err
		}
	}
	ref, err := maxmin.WaterFill(pr.Problem())
	if err != nil {
		return theorem1Trial{}, err
	}
	tr := theorem1Trial{
		diff:     ref.MaxDiff(pr.Rates()),
		messages: pr.Messages,
		sessions: pr.Sessions,
	}
	tr.converged = tr.diff <= 1e-6

	sres, err := maxmin.SyncSolver{MaxRounds: 500}.Solve(pr.Problem())
	if err != nil {
		return theorem1Trial{}, err
	}
	tr.syncRounds = sres.Rounds
	return tr, nil
}

// String renders the study summary.
func (r Theorem1Result) String() string {
	return fmt.Sprintf("refined=%v instances=%d converged=%d messages=%d sessions=%d maxSyncRounds=%d worstDiff=%.2e",
		r.Refined, r.Instances, r.Converged, r.TotalMessages, r.TotalSessions, r.MaxSyncRounds, r.WorstDiff)
}

func randomMaxminProblem(rng *randx.Rand, nLinks, nConns int) maxmin.Problem {
	p := maxmin.Problem{Capacity: map[string]float64{}}
	links := make([]string, nLinks)
	for i := range links {
		links[i] = fmt.Sprintf("l%d", i)
		p.Capacity[links[i]] = 1 + rng.Float64()*20
	}
	for i := 0; i < nConns; i++ {
		pathLen := 1 + rng.Intn(nLinks)
		perm := rng.Perm(nLinks)[:pathLen]
		path := make([]string, pathLen)
		for j, k := range perm {
			path[j] = links[k]
		}
		demand := maxmin.Inf
		if rng.Bernoulli(0.3) {
			demand = rng.Float64() * 10
		}
		p.Conns = append(p.Conns, maxmin.Conn{ID: fmt.Sprintf("c%d", i), Path: path, Demand: demand})
	}
	return p
}
