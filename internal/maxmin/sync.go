package maxmin

import (
	"math"
)

// syncResult reports a synchronous distributed solve.
type syncResult struct {
	Allocation allocation
	// Rounds is the number of synchronous exchange rounds needed to
	// reach the fixpoint.
	Rounds int
	// Converged is false when the round limit was hit first.
	Converged bool
}

// SyncSolver runs the distributed advertised-rate algorithm of [8] in
// synchronous rounds: every link computes its advertised rate μ_l from the
// recorded rates of its connections, every connection adopts the minimum
// advertised rate along its path (capped by demand), and the links record
// the new rates. The fixpoint of this iteration is exactly the maxmin
// allocation; property tests check it against WaterFill.
//
// This is the message-free skeleton of the ADVERTISE/UPDATE protocol —
// useful both as a fast solver and as the reference the event-driven
// Protocol must match.
type SyncSolver struct {
	// Eps is the convergence tolerance on rate changes per round.
	Eps float64
	// MaxRounds caps the iteration (default 4 × connections + 8,
	// generous over the paper's four-round-trip bound).
	MaxRounds int
}

// Solve runs the iteration from all-zero recorded rates.
func (s SyncSolver) Solve(p Problem) (syncResult, error) {
	return s.resume(p, nil)
}

// resume runs the iteration starting from a previous allocation — the
// event-driven use case where capacities changed and rates must re-settle
// (Theorem 1's period of instability followed by stability).
func (s SyncSolver) resume(p Problem, prev allocation) (syncResult, error) {
	if err := p.validate(); err != nil {
		return syncResult{}, err
	}
	eps := s.Eps
	if eps <= 0 {
		eps = 1e-9
	}
	maxRounds := s.MaxRounds
	if maxRounds <= 0 {
		maxRounds = 4*len(p.Conns) + 8
	}

	rate := make(allocation, len(p.Conns))
	for _, c := range p.Conns {
		if prev != nil {
			rate[c.ID] = prev[c.ID]
		} else {
			rate[c.ID] = 0
		}
	}
	links := p.sortedLinks()
	onLink := map[string][]int{}
	for i, c := range p.Conns {
		for _, l := range uniqueLinks(c.Path) {
			onLink[l] = append(onLink[l], i)
		}
	}

	for round := 1; round <= maxRounds; round++ {
		// Phase 1: every link advertises.
		adv := make(map[string]float64, len(links))
		for _, l := range links {
			conns := onLink[l]
			recorded := make([]float64, len(conns))
			for i, ci := range conns {
				recorded[i] = rate[p.Conns[ci].ID]
			}
			adv[l] = advertisedRate(p.Capacity[l], recorded)
		}
		// Phase 2: every connection adopts the path minimum.
		worst := 0.0
		for _, c := range p.Conns {
			r := c.Demand
			for _, l := range c.Path {
				if adv[l] < r {
					r = adv[l]
				}
			}
			if r < 0 {
				r = 0
			}
			if d := math.Abs(r - rate[c.ID]); d > worst {
				worst = d
			}
			rate[c.ID] = r
		}
		if worst <= eps {
			return syncResult{Allocation: rate, Rounds: round, Converged: true}, nil
		}
	}
	return syncResult{Allocation: rate, Rounds: maxRounds, Converged: false}, nil
}
