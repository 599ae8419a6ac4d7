package sim

import (
	"bytes"
	"context"
	"fmt"

	"armnet/internal/maxmin"
	"armnet/internal/obs"
	"armnet/internal/runner"
	"armnet/internal/strategy"
)

// StrategyPair names one allocator/admitter combination competing in the
// arena. Empty names select the paper defaults.
type StrategyPair struct {
	Allocator string
	Admitter  string
}

// label renders the pair as "allocator+admitter" with defaults resolved.
func (p StrategyPair) label() string {
	a, d := p.Allocator, p.Admitter
	if a == "" {
		a = strategy.DefaultAllocator
	}
	if d == "" {
		d = strategy.DefaultAdmitter
	}
	return a + "+" + d
}

// DefaultArenaPairs is the fixed head-to-head roster: the paper's own
// pair, each rival swapped in alone, and both rivals together.
func DefaultArenaPairs() []StrategyPair {
	return []StrategyPair{
		{Allocator: "maxmin", Admitter: "table2"},
		{Allocator: "erica", Admitter: "table2"},
		{Allocator: "logweight", Admitter: "table2"},
		{Allocator: "maxmin", Admitter: "measured"},
		{Allocator: "erica", Admitter: "measured"},
	}
}

// ArenaConfig drives the head-to-head strategy comparison: every
// registered pair runs the *identical* campus workload — same seed, same
// mobility trace, same QoS demands (the workload RNGs never see the
// strategy choice) — so outcome differences are attributable to the
// strategies alone.
type ArenaConfig struct {
	// CampusConfig is the shared workload. Allocator, Admitter and Obs
	// are the arena's to set: each trial runs one pair, observed.
	CampusConfig
	// pairs is the roster; nil selects DefaultArenaPairs.
	pairs []StrategyPair
}

// ArenaEntry is one strategy pair's outcome over the shared workload.
type ArenaEntry struct {
	Pair StrategyPair
	CampusResult
	// Summary digests the pair's obs instruments (setup latency,
	// handoff interruption, adaptation intensity).
	Summary obs.Summary
	// Control is the allocator's control-plane work — the overhead side
	// of the comparison.
	Control maxmin.ControlStats
	// Utilization is the mean committed downlink utilization at the end
	// of the run.
	Utilization float64
}

// RunArena runs the roster, one trial per pair. Each trial is fully
// self-contained (own simulator, environment, RNGs), so entries are
// identical at any worker count and arrive in roster order.
func RunArena(ctx context.Context, cfg ArenaConfig, workers int) ([]ArenaEntry, runner.Stats, error) {
	pairs := cfg.pairs
	if len(pairs) == 0 {
		pairs = DefaultArenaPairs()
	}
	return campusTrials(ctx, cfg.CampusConfig, len(pairs), workers, func(i int, c CampusConfig) (ArenaEntry, error) {
		c.Allocator, c.Admitter = pairs[i].Allocator, pairs[i].Admitter
		c.Obs = &obs.Options{}
		res, mgr, err := RunCampus(c, nil)
		if err != nil {
			return ArenaEntry{}, fmt.Errorf("arena %s: %w", pairs[i].label(), err)
		}
		e := ArenaEntry{
			Pair:         pairs[i],
			CampusResult: res,
			Summary:      mgr.Obs.Snapshot().Summary(),
			Utilization:  meanDownlinkUtil(mgr.Env, mgr.Ledger()),
		}
		e.Control = mgr.Adpt.Alloc.Stats()
		return e, nil
	})
}

// RenderArena renders the comparative snapshot as a stable text table —
// one row per pair, fixed column order, %.6g floats — suitable for
// golden pinning.
func RenderArena(cfg ArenaConfig, entries []ArenaEntry) []byte {
	var b bytes.Buffer
	cc := cfg.withDefaults()
	fmt.Fprintf(&b, "arena seed=%d portables=%d duration=%gs dwell=%gs mode=%s bmin=%g bmax=%g pairs=%d\n",
		cc.Seed, cc.Portables, cc.Duration, cc.Dwell, cc.Mode, cc.BMin, cc.BMax, len(entries))
	fmt.Fprintf(&b, "%-16s %9s %9s %9s %9s %10s %10s %9s %9s %9s %7s\n",
		"pair", "util", "drop", "block", "availability",
		"interr-p50", "interr-p99", "adapt/conn", "sessions", "messages", "retrans")
	for _, e := range entries {
		fmt.Fprintf(&b, "%-16s %9.6f %9.6f %9.6f %12.6f %10.6f %10.6f %10.4f %9d %9d %7d\n",
			e.Pair.label(), e.Utilization, e.DropRate, e.BlockRate,
			e.Summary.Availability, e.Summary.InterruptP50, e.Summary.InterruptP99,
			e.Summary.MeanAdaptation, e.Control.Sessions, e.Control.Messages,
			e.Control.Retransmits)
	}
	return b.Bytes()
}
