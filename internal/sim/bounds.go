package sim

import (
	"fmt"

	"armnet/internal/core"
	"armnet/internal/des"
	"armnet/internal/qos"
	"armnet/internal/topology"
)

// BoundsConfig drives the loose-vs-rigid QoS experiment that quantifies
// the paper's §2.1 motivation: on an error-prone wireless link whose
// effective capacity varies, rigid reservations either overcommit the
// faded link (QoS violations) or must be refused, while loose bounds
// [b_min, b_max] let the adaptation protocol keep every connection inside
// the current capacity.
type BoundsConfig struct {
	// Seed drives the run's randomness; every value is valid and
	// distinct, including 0.
	Seed int64
	// Users all sit (static) in one cell.
	Users int
	// BMin/BMax are the loose bounds; the rigid scenario requests the
	// midpoint as a fixed rate.
	BMin, BMax float64
	// Levels are the wireless capacity levels (level 0 nominal).
	Levels []float64
	// DwellMean is the mean time at a capacity level.
	DwellMean float64
	// Duration is the simulated time.
	Duration float64
}

func (c BoundsConfig) withDefaults() BoundsConfig {
	if c.Users <= 0 {
		c.Users = 4
	}
	if c.BMin <= 0 {
		c.BMin = 100e3
	}
	if c.BMax <= c.BMin {
		c.BMax = 400e3
	}
	if len(c.Levels) == 0 {
		c.Levels = []float64{1.6e6, 800e3, 400e3}
	}
	if c.DwellMean <= 0 {
		c.DwellMean = 60
	}
	if c.Duration <= 0 {
		c.Duration = 1800
	}
	return c
}

// BoundsResult reports one scenario.
type BoundsResult struct {
	Loose bool
	// Admitted is how many of the Users got a connection.
	Admitted int
	// OvercommitFraction is the fraction of time Σ allocations exceeded
	// the current wireless capacity (QoS violation time).
	OvercommitFraction float64
	// MeanUtilization is the time average of min(Σ alloc, capacity) /
	// capacity — how much of the varying capacity was actually promised
	// to users.
	MeanUtilization float64
}

// RunBounds runs both scenarios over the same fade process seed.
func RunBounds(cfg BoundsConfig) (loose, rigid BoundsResult, err error) {
	cfg = cfg.withDefaults()
	run := func(isLoose bool) (BoundsResult, error) {
		env, err := topology.BuildCampus()
		if err != nil {
			return BoundsResult{}, err
		}
		simulator := des.New()
		mgr, err := core.NewManager(simulator, env, core.Config{Seed: cfg.Seed, Tth: 30})
		if err != nil {
			return BoundsResult{}, err
		}
		req := walkRequest(cfg.BMin, cfg.BMax)
		if !isLoose {
			mid := (cfg.BMin + cfg.BMax) / 2
			req.Bandwidth = qos.Fixed(mid)
			req.Traffic.Rho = mid
		}
		res := BoundsResult{Loose: isLoose}
		for i := 0; i < cfg.Users; i++ {
			id := fmt.Sprintf("u%d", i)
			if err := mgr.PlacePortable(id, "off-1"); err != nil {
				return BoundsResult{}, err
			}
			if _, err := mgr.OpenConnection(id, req); err == nil {
				res.Admitted++
			}
		}
		if _, err := mgr.AttachChannel("off-1", cfg.Levels, cfg.DwellMean); err != nil {
			return BoundsResult{}, err
		}
		// Sample the wireless ledger once per second.
		cell := env.Universe.Cell("off-1")
		wl := env.Backbone.Link(cell.BaseStation, topology.AirNode("off-1")).ID
		var overTime, utilArea, samples float64
		simulator.Every(1, func() {
			ls := mgr.Ledger().Link(wl)
			sum := ls.SumCur()
			cap := ls.Capacity
			samples++
			if sum > cap+1e-6 {
				overTime++
			}
			used := sum
			if used > cap {
				used = cap
			}
			utilArea += used / cap
		})
		if err := simulator.RunUntil(cfg.Duration); err != nil {
			return BoundsResult{}, err
		}
		if samples > 0 {
			res.OvercommitFraction = overTime / samples
			res.MeanUtilization = utilArea / samples
		}
		return res, nil
	}
	if loose, err = run(true); err != nil {
		return
	}
	rigid, err = run(false)
	return
}
