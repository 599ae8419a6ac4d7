package sim

import (
	"fmt"

	"armnet/internal/core"
	"armnet/internal/des"
	"armnet/internal/qos"
	"armnet/internal/topology"
)

const (
	// boundsDuration is the simulated time of each scenario, in seconds.
	boundsDuration = 1800
	// boundsBMin and boundsBMax are the loose bounds; the rigid scenario
	// requests the midpoint as a fixed rate.
	boundsBMin, boundsBMax = 100e3, 400e3
	// boundsDwellMean is the mean time at a wireless capacity level.
	boundsDwellMean = 60
	// boundsUsers all sit (static) in one cell.
	boundsUsers = 4
)

// BoundsResult reports one scenario.
type BoundsResult struct {
	Loose bool
	// Admitted is how many of the boundsUsers got a connection.
	Admitted int
	// OvercommitFraction is the fraction of time Σ allocations exceeded
	// the current wireless capacity (QoS violation time).
	OvercommitFraction float64
	// MeanUtilization is the time average of min(Σ alloc, capacity) /
	// capacity — how much of the varying capacity was actually promised
	// to users.
	MeanUtilization float64
}

// RunBounds is the loose-vs-rigid QoS experiment that quantifies the
// paper's §2.1 motivation: on an error-prone wireless link whose
// effective capacity varies, rigid reservations either overcommit the
// faded link (QoS violations) or must be refused, while loose bounds
// [b_min, b_max] let the adaptation protocol keep every connection inside
// the current capacity. Both scenarios run over the same fade process
// seed; every seed is valid and distinct, including 0.
func RunBounds(seed int64) (loose, rigid BoundsResult, err error) {
	run := func(isLoose bool) (BoundsResult, error) {
		env, err := topology.BuildCampus()
		if err != nil {
			return BoundsResult{}, err
		}
		simulator := des.New()
		mgr, err := core.NewManager(simulator, env, core.Config{Seed: seed, Tth: 30})
		if err != nil {
			return BoundsResult{}, err
		}
		req := walkRequest(boundsBMin, boundsBMax)
		if !isLoose {
			mid := (boundsBMin + boundsBMax) / 2
			req.Bandwidth = qos.Fixed(mid)
			req.Traffic.Rho = mid
		}
		res := BoundsResult{Loose: isLoose}
		for i := 0; i < boundsUsers; i++ {
			id := fmt.Sprintf("u%d", i)
			if err := mgr.PlacePortable(id, "off-1"); err != nil {
				return BoundsResult{}, err
			}
			if _, err := mgr.OpenConnection(id, req); err == nil {
				res.Admitted++
			}
		}
		// The wireless capacity levels, level 0 nominal.
		if err := mgr.AttachChannel("off-1", []float64{1.6e6, 800e3, 400e3}, boundsDwellMean); err != nil {
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
		if err := simulator.RunUntil(boundsDuration); err != nil {
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
