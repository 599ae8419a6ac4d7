package sim

import (
	"bytes"
	"context"
	"fmt"
	"io"

	"armnet/internal/admission"
	"armnet/internal/core"
	"armnet/internal/obs"
	"armnet/internal/predict"
	"armnet/internal/profile"
	"armnet/internal/randx"
	"armnet/internal/runner"
	"armnet/internal/topology"
)

// CampusConfig drives the integrated campus scenario: random-walking
// portables carrying QoS-bounded connections through the full resource
// manager under a chosen reservation mode.
type CampusConfig struct {
	// Seed drives the run's randomness. Every value is a valid, distinct
	// seed — including 0, the zero-value default (seeds 0 and 1 used to
	// alias; they no longer do).
	Seed int64
	// Portables is the population size (default 24).
	Portables int
	// Duration is the simulated time in seconds (default 3600).
	Duration float64
	// Dwell is the mean cell dwell time (default 180 s).
	Dwell float64
	// Mode selects the advance-reservation strategy.
	Mode core.ReservationMode
	// BMin/BMax are the per-connection bandwidth bounds (defaults
	// 32k/128k).
	BMin, BMax float64
	// Tth overrides the static/mobile threshold (0 = manager default).
	Tth float64
	// Allocator and Admitter name the registered resource-management
	// strategies (core.Config passthrough); empty selects the paper's
	// defaults (maxmin, table2).
	Allocator, Admitter string
	// Obs arms the observability layer: the run returns a deterministic
	// instrument snapshot alongside its result. Off by default — the
	// disabled path constructs nothing and perturbs nothing, so traces
	// stay byte-identical either way.
	Obs bool
	// Spans receives the JSONL lifecycle-span export when Obs is set.
	// Single-run only: sweeps run trials concurrently, so give each trial
	// its own writer (or leave nil).
	Spans io.Writer
}

func (c CampusConfig) withDefaults() CampusConfig {
	if c.Portables <= 0 {
		c.Portables = 24
	}
	if c.Duration <= 0 {
		c.Duration = 3600
	}
	if c.Dwell <= 0 {
		c.Dwell = 180
	}
	if c.BMin <= 0 {
		c.BMin = 32e3
	}
	if c.BMax <= 0 {
		c.BMax = 128e3
	}
	return c
}

// CampusResult summarizes one integrated run.
type CampusResult struct {
	Mode core.ReservationMode
	// DropRate is dropped handoffs / attempted.
	DropRate float64
	// BlockRate is blocked new connections / requested.
	BlockRate float64
	// AdvanceReservations counts reservation placements.
	AdvanceReservations int64
	// PoolClaims counts unpredicted handoffs.
	PoolClaims int64
	// PredictedLatency / UnpredictedLatency are mean handoff signaling
	// latencies in seconds (0 when no samples).
	PredictedLatency, UnpredictedLatency float64
	// PredictedShare is the fraction of handoffs that were predicted.
	PredictedShare float64
	// Handoffs is the attempted count.
	Handoffs int64
}

// campusResult reads the summary off the finished manager's always-on
// metrics and latency subscribers.
func campusResult(mgr *core.Manager) CampusResult {
	ctr, lat := mgr.Met.Counter, &mgr.Latency
	res := CampusResult{
		Mode:                mgr.Cfg.Mode,
		DropRate:            ctr.Ratio(core.CtrHandoffDropped, core.CtrHandoffTried),
		BlockRate:           ctr.Ratio(core.CtrNewBlocked, core.CtrNewRequested),
		AdvanceReservations: ctr.Get(core.CtrAdvanceResv),
		PoolClaims:          ctr.Get(core.CtrPoolClaims),
		PredictedLatency:    lat.Predicted.Mean(),
		UnpredictedLatency:  lat.Unpredicted.Mean(),
		Handoffs:            ctr.Get(core.CtrHandoffTried),
	}
	if n := lat.Predicted.N() + lat.Unpredicted.N(); n > 0 {
		res.PredictedShare = float64(lat.Predicted.N()) / float64(n)
	}
	return res
}

// RunCampus executes the integrated scenario and returns its metrics.
func RunCampus(cfg CampusConfig) (CampusResult, error) {
	res, _, err := runCampus(cfg, nil)
	return res, err
}

// RunCampusTrace is RunCampus with a JSONL event trace of the full run:
// every control-plane event, one line each, stamped with (time, seq).
// The trace is byte-identical for a given config at any worker count.
func RunCampusTrace(cfg CampusConfig) (CampusResult, []byte, error) {
	var buf bytes.Buffer
	res, _, err := runCampus(cfg, &buf)
	return res, buf.Bytes(), err
}

// RunCampusObs runs the scenario with the observability layer armed and
// returns the deterministic instrument snapshot alongside the metrics.
func RunCampusObs(cfg CampusConfig) (CampusResult, *obs.Snapshot, error) {
	cfg.Obs = true
	res, mgr, err := runCampus(cfg, nil)
	if err != nil {
		return CampusResult{}, nil, err
	}
	return res, mgr.Obs.Snapshot(), nil
}

// runCampus is the walk on the campus environment with the config's
// defaults filled in.
func runCampus(cfg CampusConfig, traceW io.Writer) (CampusResult, *core.Manager, error) {
	env, err := topology.BuildCampus()
	if err != nil {
		return CampusResult{}, nil, err
	}
	mgr, err := RunWalk(env, core.Config{}, cfg.withDefaults(), nil, traceW)
	if err != nil {
		return CampusResult{}, nil, err
	}
	return campusResult(mgr), mgr, nil
}

// meanDownlinkUtil averages the committed utilization of every cell's
// wireless downlink. Universe.Cells is sorted, so the float sum is
// stable run to run.
func meanDownlinkUtil(env *topology.Environment, lg *admission.Ledger) float64 {
	cells := env.Universe.Cells()
	total, n := 0.0, 0
	for _, c := range cells {
		l := env.Backbone.Link(c.BaseStation, topology.AirNode(c.ID))
		if l == nil {
			continue
		}
		ls := lg.Link(l.ID)
		if ls == nil || ls.Capacity <= 0 {
			continue
		}
		total += (ls.SumMin() + ls.AdvanceReserved) / ls.Capacity
		n++
	}
	if n == 0 {
		return 0
	}
	return total / float64(n)
}

// sweepSeeds runs `replications` (at least one) independent trials under
// runner.Seeds-derived seeds — replication 0 keeps seed — fanned over a
// worker pool. Results arrive in replication order at any worker count.
func sweepSeeds[R any](ctx context.Context, seed int64, replications, workers int, trial func(seed int64) (R, error)) ([]R, runner.Stats, error) {
	if replications <= 0 {
		replications = 1
	}
	seeds := runner.Seeds(seed, replications)
	return runner.Map(ctx, workers, replications, func(_ context.Context, i int) (R, error) {
		return trial(seeds[i])
	})
}

// RunCampusObsSweep runs `replications` independent observed campus trials
// with per-replication seeds derived from cfg.Seed (replication 0 keeps
// cfg.Seed) and merges their snapshots in replication order. Because each
// trial is deterministic and the merge order is fixed, the merged snapshot
// is byte-identical at any worker count.
func RunCampusObsSweep(ctx context.Context, cfg CampusConfig, replications, workers int) ([]CampusResult, *obs.Snapshot, error) {
	cfg.Spans = nil // a shared writer would race across concurrent trials
	type trial struct {
		res  CampusResult
		snap *obs.Snapshot
	}
	trials, _, err := sweepSeeds(ctx, cfg.Seed, replications, workers, func(seed int64) (trial, error) {
		c := cfg
		c.Seed = seed
		res, snap, err := RunCampusObs(c)
		return trial{res: res, snap: snap}, err
	})
	if err != nil {
		return nil, nil, err
	}
	results := make([]CampusResult, len(trials))
	snaps := make([]*obs.Snapshot, len(trials))
	for i, tr := range trials {
		results[i] = tr.res
		snaps[i] = tr.snap
	}
	merged, err := obs.MergeAll(snaps)
	if err != nil {
		return nil, nil, err
	}
	return results, merged, nil
}

// TthPoint is one sample of the T_th sensitivity sweep.
type TthPoint struct {
	Tth float64
	CampusResult
}

// RunTthSensitivity sweeps the static/mobile threshold (DESIGN.md's T_th
// ablation): small T_th flips portables static quickly (fewer advance
// reservations, more unpredicted handoffs on re-moves); large T_th keeps
// everyone mobile (maximum reservations).
func RunTthSensitivity(cfg CampusConfig, thresholds []float64) ([]TthPoint, error) {
	out, _, err := RunTthSensitivityParallel(context.Background(), cfg, thresholds, 1)
	if err != nil {
		return nil, err
	}
	return out, nil
}

// RunTthSensitivityParallel is RunTthSensitivity fanned across a worker
// pool: each threshold is an independent trial (every RunCampus builds its
// own simulator, environment, and RNGs from cfg.Seed), so the points are
// identical at any worker count.
func RunTthSensitivityParallel(ctx context.Context, cfg CampusConfig, thresholds []float64, workers int) ([]TthPoint, runner.Stats, error) {
	if len(thresholds) == 0 {
		thresholds = []float64{30, 120, 300, 900}
	}
	return runner.Map(ctx, workers, len(thresholds), func(_ context.Context, i int) (TthPoint, error) {
		c := cfg
		c.Tth = thresholds[i]
		r, err := RunCampus(c)
		if err != nil {
			return TthPoint{}, err
		}
		return TthPoint{Tth: thresholds[i], CampusResult: r}, nil
	})
}

// campusModes is the fixed mode order of the comparison experiment.
var campusModes = []core.ReservationMode{core.ModePredictive, core.ModeBruteForce, core.ModeNone}

// RunCampusComparison runs the scenario under all three reservation modes
// with the same seed and mobility.
func RunCampusComparison(cfg CampusConfig) ([]CampusResult, error) {
	out, _, err := RunCampusComparisonParallel(context.Background(), cfg, 1)
	if err != nil {
		return nil, err
	}
	return out, nil
}

// RunCampusComparisonParallel runs the three reservation modes as
// independent trials on a worker pool. Results arrive in the fixed mode
// order (predictive, brute-force, none) regardless of worker count.
func RunCampusComparisonParallel(ctx context.Context, cfg CampusConfig, workers int) ([]CampusResult, runner.Stats, error) {
	return runner.Map(ctx, workers, len(campusModes), func(_ context.Context, i int) (CampusResult, error) {
		c := cfg
		c.Mode = campusModes[i]
		return RunCampus(c)
	})
}

// GridConfig drives the scale scenario: a rows×cols office building with
// a large random-walking population, exercising the integrated manager
// well beyond the paper's seven-cell wing.
type GridConfig struct {
	// Seed drives the run's randomness; every value is valid and
	// distinct, including the zero-value 0.
	Seed       int64
	Rows, Cols int
	Portables  int
	Duration   float64
	Dwell      float64
	Mode       core.ReservationMode
}

func (c GridConfig) withDefaults() GridConfig {
	if c.Rows <= 0 {
		c.Rows = 4
	}
	if c.Cols <= 1 {
		c.Cols = 6
	}
	if c.Portables <= 0 {
		c.Portables = 80
	}
	if c.Duration <= 0 {
		c.Duration = 1800
	}
	if c.Dwell <= 0 {
		c.Dwell = 150
	}
	return c
}

// GridResult summarizes a scale run.
type GridResult struct {
	CampusResult
	Cells  int
	Events uint64
}

// RunGrid executes the scale scenario.
func RunGrid(cfg GridConfig) (GridResult, error) {
	rs, _, err := RunGridSweep(context.Background(), cfg, 1, 1)
	if err != nil {
		return GridResult{}, err
	}
	return rs[0], nil
}

// RunGridSweep runs `replications` independent grid scenarios with
// per-replication seeds derived from cfg.Seed by runner.SplitSeed
// (replication 0 keeps cfg.Seed, so a one-replication sweep reproduces
// RunGrid exactly) and returns the results in replication order.
func RunGridSweep(ctx context.Context, cfg GridConfig, replications, workers int) ([]GridResult, runner.Stats, error) {
	cfg = cfg.withDefaults()
	return sweepSeeds(ctx, cfg.Seed, replications, workers, func(seed int64) (GridResult, error) {
		c := cfg
		c.Seed = seed
		return runGridOnce(c)
	})
}

// runGridOnce is one self-contained grid trial: the campus walk on a
// rows×cols building, with three-digit portable names.
func runGridOnce(cfg GridConfig) (GridResult, error) {
	cfg = cfg.withDefaults()
	env, err := topology.BuildGrid(cfg.Rows, cfg.Cols, 1.6e6)
	if err != nil {
		return GridResult{}, err
	}
	trace, err := randomWalk(env.Universe, "p%03d", cfg.Portables, cfg.Dwell, cfg.Duration, cfg.Seed)
	if err != nil {
		return GridResult{}, err
	}
	mgr, err := RunWalk(env, core.Config{}, CampusConfig{
		Seed: cfg.Seed, Duration: cfg.Duration, Mode: cfg.Mode, BMin: 32e3, BMax: 128e3,
	}, trace, nil)
	if err != nil {
		return GridResult{}, err
	}
	return GridResult{CampusResult: campusResult(mgr), Cells: env.Universe.Len(), Events: mgr.Sim.Fired()}, nil
}

// CorridorResult reports the §6.1 linear-movement prediction study.
type CorridorResult struct {
	Transits int
	Correct  int
}

// Accuracy returns Correct/Transits.
func (c CorridorResult) Accuracy() float64 {
	if c.Transits == 0 {
		return 0
	}
	return float64(c.Correct) / float64(c.Transits)
}

// RunCorridor validates the paper's corridor claim ("users typically move
// in the same direction across the cell, i.e. knowing the previous cell,
// the next cell can be predicted easily"): anonymous portables stream
// down a corridor chain in both directions; after a training phase the
// cell-profile predictor must call the next segment almost perfectly.
func RunCorridor(seed int64, length, walkers int) (CorridorResult, error) {
	if length < 4 {
		length = 6
	}
	if walkers <= 0 {
		walkers = 200
	}
	env, err := topology.BuildCorridor(length, 1.6e6)
	if err != nil {
		return CorridorResult{}, err
	}
	pred := predictNew(env)
	rng := randx.New(seed)
	cell := func(i int) topology.CellID { return topology.CellID(fmt.Sprintf("c%d", i)) }
	res := CorridorResult{}
	for w := 0; w < walkers; w++ {
		id := fmt.Sprintf("w%d", w)
		forward := rng.Bernoulli(0.5)
		evaluate := w >= walkers/2 // first half trains
		path := make([]int, length)
		for i := range path {
			if forward {
				path[i] = i
			} else {
				path[i] = length - 1 - i
			}
		}
		prev := topology.CellID("")
		for i := 0; i+1 < len(path); i++ {
			from, to := cell(path[i]), cell(path[i+1])
			if evaluate && i > 0 {
				// In `from`, having come from prev: predict.
				d := pred.NextCell(id, prev, from)
				res.Transits++
				if d.Target == to {
					res.Correct++
				}
			}
			pred.RecordHandoff(profile.Handoff{
				Portable: id, Prev: prev, From: from, To: to,
				Time: float64(w*length + i),
			})
			prev = from
		}
	}
	return res, nil
}

// predictNew builds a predictor for an environment (indirection avoids an
// import cycle in callers that only need the corridor study).
func predictNew(env *topology.Environment) *predict.Predictor {
	return predict.New(env.Universe, profile.ServerOptions{NpC: 100000})
}
