package sim

import (
	"context"
	"fmt"

	"armnet/internal/des"
	"armnet/internal/randx"
	"armnet/internal/reserve"
	"armnet/internal/runner"
)

// figure6Config drives the §7.2 two-cell experiment: capacity 40, type 1
// (b=1, λ=30, 1/μ=0.2, h=0.7) and type 2 (b=4, λ=1, 1/μ=0.25, h=0.7).
type figure6Config struct {
	// Seed drives the run's randomness; every value is valid and
	// distinct, including 0.
	Seed int64
	// capacity is B_c in units (default 40).
	capacity int
	// T is the look-ahead window of the probabilistic algorithm.
	T float64
	// PQoS is the handoff-dropping design target.
	PQoS float64
	// Horizon is the simulated duration in seconds (default 400).
	Horizon float64
	// Static selects the paper's static-reservation baseline: a fixed
	// StaticReserve units are withheld from new connections instead of
	// running the probabilistic algorithm.
	Static        bool
	StaticReserve int
	// classes defaults to the paper's two types when nil.
	classes []reserve.ClassState
	// lambdas are the per-class arrival rates (default 30 and 1).
	lambdas []float64
}

func (c figure6Config) withDefaults() figure6Config {
	if c.capacity <= 0 {
		c.capacity = 40
	}
	if c.Horizon <= 0 {
		c.Horizon = 400
	}
	if c.classes == nil {
		c.classes = []reserve.ClassState{
			{Bandwidth: 1, Mu: 1 / 0.2, Handoff: 0.7},
			{Bandwidth: 4, Mu: 1 / 0.25, Handoff: 0.7},
		}
		c.lambdas = []float64{30, 1}
	}
	return c
}

// Figure6Result is one point of the P_d / P_b tradeoff.
type Figure6Result struct {
	T, PQoS float64
	// Pb is the new-connection blocking probability.
	Pb float64
	// Pd is the handoff dropping probability.
	Pd                              float64
	NewArrivals, NewBlocked         int
	HandoffAttempts, HandoffDropped int
	// MeanReserved is the time-average of the reservation the algorithm
	// kept (units).
	MeanReserved float64
}

// fig6Cell is one cell's occupancy.
type fig6Cell struct {
	counts []int // per class
	used   int   // units
}

// runFigure6 simulates the two-cell system and measures P_b and P_d.
func runFigure6(cfg figure6Config) (Figure6Result, error) {
	cfg = cfg.withDefaults()
	// The initial transient, excluded from the counts. The conversion
	// keeps the product rounded on its own, as the field it replaced
	// was: fused into a later subtraction it would round differently on
	// architectures with a fused multiply-add.
	warmup := float64(cfg.Horizon * 0.1)
	if !cfg.Static && (cfg.PQoS <= 0 || cfg.PQoS >= 1) {
		return Figure6Result{}, fmt.Errorf("sim: PQoS must be in (0,1), got %v", cfg.PQoS)
	}
	if len(cfg.lambdas) != len(cfg.classes) {
		return Figure6Result{}, fmt.Errorf("sim: %d lambdas for %d classes", len(cfg.lambdas), len(cfg.classes))
	}
	rng := randx.New(cfg.Seed)
	sim := des.New()
	cells := [2]*fig6Cell{
		{counts: make([]int, len(cfg.classes))},
		{counts: make([]int, len(cfg.classes))},
	}
	res := Figure6Result{T: cfg.T, PQoS: cfg.PQoS}

	// Reservation cache: occupancies recur constantly, and the plan is a
	// pure function of (n_here, s_there) — memoize per run.
	type occKey struct{ n0, n1, s0, s1 int }
	planCache := map[occKey]int{}
	reservedIn := func(cell int) int {
		if cfg.Static {
			return cfg.StaticReserve
		}
		other := 1 - cell
		k := occKey{
			cells[cell].counts[0], cells[cell].counts[1%len(cfg.classes)],
			cells[other].counts[0], cells[other].counts[1%len(cfg.classes)],
		}
		if v, ok := planCache[k]; ok {
			return v
		}
		plan, err := reserve.ProbabilisticPlan(
			cfg.classes, cells[cell].counts, cells[other].counts,
			cfg.capacity, cfg.T, cfg.PQoS)
		v := 0
		if err == nil || plan.MaxConns != nil {
			v = plan.Reserved
		}
		planCache[k] = v
		return v
	}

	var reservedArea float64
	var lastSample float64
	sampleReserved := func() {
		now := sim.Now()
		if now > lastSample && now > warmup {
			from := lastSample
			if from < warmup {
				from = warmup
			}
			reservedArea += float64(float64(reservedIn(0)) * (now - from))
		}
		lastSample = now
	}

	counting := func() bool { return sim.Now() >= warmup }

	var depart func(cell, class int)
	place := func(cell, class int) {
		cells[cell].counts[class]++
		cells[cell].used += cfg.classes[class].Bandwidth
		sim.PostAfter(rng.Exp(cfg.classes[class].Mu), func() { depart(cell, class) })
	}
	remove := func(cell, class int) {
		cells[cell].counts[class]--
		cells[cell].used -= cfg.classes[class].Bandwidth
	}
	depart = func(cell, class int) {
		sampleReserved()
		remove(cell, class)
		if !rng.Bernoulli(cfg.classes[class].Handoff) {
			return // connection terminates
		}
		// Handoff to the other cell: may use the reserved bandwidth.
		other := 1 - cell
		if counting() {
			res.HandoffAttempts++
		}
		if cells[other].used+cfg.classes[class].Bandwidth <= cfg.capacity {
			place(other, class)
		} else if counting() {
			res.HandoffDropped++
		}
	}

	// Poisson arrivals per cell and class.
	for cell := 0; cell < 2; cell++ {
		for class := range cfg.classes {
			cell, class := cell, class
			lam := cfg.lambdas[class]
			if lam <= 0 {
				continue
			}
			var next func()
			next = func() {
				sim.PostAfter(rng.Exp(lam), func() {
					sampleReserved()
					if counting() {
						res.NewArrivals++
					}
					b := cfg.classes[class].Bandwidth
					if cells[cell].used+b <= cfg.capacity-reservedIn(cell) {
						place(cell, class)
					} else if counting() {
						res.NewBlocked++
					}
					next()
				})
			}
			next()
		}
	}

	if err := sim.RunUntil(cfg.Horizon); err != nil {
		return Figure6Result{}, err
	}
	if res.NewArrivals > 0 {
		res.Pb = float64(res.NewBlocked) / float64(res.NewArrivals)
	}
	if res.HandoffAttempts > 0 {
		res.Pd = float64(res.HandoffDropped) / float64(res.HandoffAttempts)
	}
	if span := cfg.Horizon - warmup; span > 0 {
		res.MeanReserved = reservedArea / span
	}
	return res, nil
}

// Figure6Curve is one P_d-vs-P_b curve for a fixed window T.
type Figure6Curve struct {
	T      float64
	Points []Figure6Result
}

// RunFigure6Sweep regenerates the Figure 6 family: for each window T it
// sweeps P_QOS and records the (P_d, P_b) operating points, one trial per
// (T, P_QOS). Every trial builds its own RNG and plan cache, so the curves
// are identical at any worker count.
func RunFigure6Sweep(ctx context.Context, seed int64, windows, pqos []float64, horizon float64, workers int) ([]Figure6Curve, runner.Stats, error) {
	if len(windows) == 0 {
		windows = []float64{0.01, 0.05, 0.1, 0.3}
	}
	if len(pqos) == 0 {
		pqos = []float64{0.001, 0.005, 0.01, 0.02, 0.05, 0.1, 0.2, 0.4}
	}
	n := len(pqos)
	points, st, err := runner.Map(ctx, workers, len(windows)*n, func(_ context.Context, i int) (Figure6Result, error) {
		return runFigure6(figure6Config{Seed: seed, T: windows[i/n], PQoS: pqos[i%n], Horizon: horizon})
	})
	if err != nil {
		return nil, st, err
	}
	out := make([]Figure6Curve, len(windows))
	for w, T := range windows {
		out[w] = Figure6Curve{T: T, Points: points[w*n : (w+1)*n : (w+1)*n]}
	}
	return out, st, nil
}
