package strategy

import (
	"math"

	"armnet/internal/maxmin"
)

// erica is the ERICA-style fair-share rule (after Fahmy & Jain's ABR
// switch scheme). Where the paper's maxmin protocol needs four
// ADVERTISE round trips before an UPDATE commits, ERICA stamps a single
// explicit-rate sweep: each switch offers
//
//	μ_l(i) = max(C_l / N_l, C_l − Σ_{j≠i} recorded_j)
//
// — the larger of the equal fair share and the capacity left over by
// everyone else — and the source commits min(demand, min_l μ_l(i)) after
// one out-and-back pass. Convergence takes more follow-on sessions than
// maxmin's synchronized rounds (rates transiently overshoot before
// neighbors record them), but each session costs a quarter of the
// control packets; the arena quantifies that trade.
//
// It is the explicit-rate rule with unit weight: C·1/Σ1 is C/N bit for
// bit.
var erica = maxmin.SwitchRule{Name: "erica", Weight: func(float64) float64 { return 1 }}

// logweight is the logarithmic-weight proportional-sharing rule (after
// Robert & Véber's log-weighted bandwidth sharing). It runs the same
// single explicit-rate round trip but replaces the equal fair share with
// a weighted one: every connection carries the weight
//
//	w_c = 1 + log(1 + demand_c)
//
// and each switch offers
//
//	μ_l(c) = max(C_l · w_c / Σ_j w_j, C_l − Σ_{j≠c} recorded_j)
//
// — the larger of the *log-weighted* share and the capacity left over
// by everyone else. The +1 floor keeps zero-demand connections
// schedulable, and the logarithm bounds the favoritism: a connection
// demanding 10× the bandwidth earns only a slightly larger floor, so
// saturated links split capacity nearly evenly while still tilting
// toward heavy flows. On a saturated link whose sharers are all
// demand-uncapped the fixed point is exactly the weighted proportional
// split C_l · w_c / Σ_j w_j; the arena quantifies how that compares to
// max-min and ERICA on blocking, adaptation, and overhead.
//
// The weight caps the demand at math.MaxFloat64: an unbounded demand
// (maxmin.Inf) would weigh +Inf and its share be Inf/Inf = NaN, so two
// unbounded connections split evenly instead of the first taking all.
var logweight = maxmin.SwitchRule{Name: "logweight", Weight: func(demand float64) float64 { return 1 + math.Log1p(min(demand, math.MaxFloat64)) }}
