package armnet

import (
	"armnet/internal/runner"
	"armnet/internal/sim"
)

// This file re-exports the experiment harnesses that regenerate the
// paper's tables and figures, so downstream users (and the repository's
// own cmd/paperfigs and benchmarks) can run them through the public API.

// Experiment configurations and results.
type (
	// Figure4Config / Figure4Result: §7.1 office next-cell prediction on
	// the calibrated ECE-building trace.
	Figure4Config = sim.Figure4Config
	Figure4Result = sim.Figure4Result

	// Figure5Config / Figure5Result: §7.1 meeting-room reservation
	// comparison (brute force vs aggregation vs booking calendar).
	Figure5Config = sim.Figure5Config
	Figure5Result = sim.Figure5Result
	Fig5Algorithm = sim.Fig5Algorithm

	// Figure6Config / Figure6Result: §7.2 probabilistic default
	// reservation P_d/P_b tradeoff.
	Figure6Config = sim.Figure6Config
	Figure6Result = sim.Figure6Result
	Figure6Curve  = sim.Figure6Curve

	// Table2Config / Table2Result: the admission-test rows.
	Table2Config = sim.Table2Config
	Table2Result = sim.Table2Result

	// Theorem1Config / Theorem1Result: event-driven maxmin convergence.
	Theorem1Config = sim.Theorem1Config
	Theorem1Result = sim.Theorem1Result

	// Figure2Config / Figure2Result: lounge handoff-activity profile.
	Figure2Config = sim.Figure2Config
	Figure2Result = sim.Figure2Result

	// CampusConfig / CampusResult: integrated campus scenario comparing
	// reservation modes (extension experiment: drop/block rates and
	// handoff signaling latency, predicted vs unpredicted).
	CampusConfig = sim.CampusConfig
	CampusResult = sim.CampusResult

	// TthPoint is one sample of the T_th sensitivity ablation.
	TthPoint = sim.TthPoint

	// ArenaConfig / ArenaEntry / StrategyPair: the head-to-head strategy
	// arena — every registered allocator/admitter pair runs the
	// *identical* campus workload (same seed, mobility and demands) and
	// the entries compare outcome against control-plane cost.
	ArenaConfig  = sim.ArenaConfig
	ArenaEntry   = sim.ArenaEntry
	StrategyPair = sim.StrategyPair

	// GridConfig / GridResult: scale scenario on a rows×cols building.
	GridConfig = sim.GridConfig
	GridResult = sim.GridResult

	// BoundsConfig / BoundsResult: §2.1 loose-vs-rigid QoS quantified.
	BoundsConfig = sim.BoundsConfig
	BoundsResult = sim.BoundsResult

	// CorridorResult: §6.1 linear-movement prediction accuracy.
	CorridorResult = sim.CorridorResult

	// RunStats reports trial counts, wall time and speedup for the
	// multi-trial experiment runners.
	RunStats = runner.Stats
)

// Figure 5 algorithm selectors.
const (
	AlgBruteForce  = sim.AlgBruteForce
	AlgAggregation = sim.AlgAggregation
	AlgMeetingRoom = sim.AlgMeetingRoom
)

// Experiment runners. A single trial is one function; an experiment
// over an axis (modes, thresholds, instances, pairs, class size ×
// algorithm, T × P_QOS) takes a context and a worker count and fans its
// trials over a worker pool with deterministic replication — the same
// seed yields bit-identical results at any worker count (workers <= 0
// selects GOMAXPROCS, 1 runs serially).
var (
	RunFigure2           = sim.RunFigure2
	RunFigure4           = sim.RunFigure4
	RunFigure5           = sim.RunFigure5
	RunFigure5Comparison = sim.RunFigure5Comparison
	RunFigure6           = sim.RunFigure6
	RunFigure6Sweep      = sim.RunFigure6Sweep
	RunTable2            = sim.RunTable2
	RunTheorem1          = sim.RunTheorem1
	// RunCampus runs the campus scenario; a non-nil writer receives the
	// run's full JSONL event trace (one control-plane event per line,
	// stamped with time and sequence), and with Obs set the returned
	// manager's Obs holds the deterministic instrument snapshot.
	RunCampus           = sim.RunCampus
	RunCampusComparison = sim.RunCampusComparison
	// RunWalk is the one walk every campus-family experiment and
	// cmd/armsim run, on a caller-built environment and manager
	// configuration; it returns the finished manager.
	RunWalk = sim.RunWalk
	// RunArena runs the strategy roster; RenderArena renders the stable
	// comparative table and DefaultArenaPairs is the built-in roster.
	RunArena          = sim.RunArena
	RenderArena       = sim.RenderArena
	DefaultArenaPairs = sim.DefaultArenaPairs
	RunTthSensitivity = sim.RunTthSensitivity
	RunGrid           = sim.RunGrid
	RunBounds         = sim.RunBounds
	RunCorridor       = sim.RunCorridor
	// ErlangB is the analytic blocking formula used to validate the
	// Figure 6 simulator.
	ErlangB = sim.ErlangB
	// SplitSeed derives decorrelated per-trial seeds from a master seed;
	// trial 0 keeps the master.
	SplitSeed = runner.SplitSeed
)
