// Package reserve implements the paper's advance resource reservation
// algorithms (§6): the probabilistic default reservation of §6.3
// (eqs. 3–7) evaluated by exact binomial convolution, the meeting-room
// booking-calendar policy of §6.2.1, the cafeteria and default lounge
// policies of §6.2.2–6.2.3, and the per-portable reservations the
// office/corridor predictions drive.
package reserve

import (
	"errors"
	"fmt"
	"math"
)

// ClassState describes one connection type in the two-cell model of
// Figure 3 (type i with bandwidth b_min,i, departure rate μ_i and handoff
// probability h).
type ClassState struct {
	// Bandwidth is b_min,i in capacity units (positive integer — the
	// paper's example uses 1 and 4 on a capacity of 40).
	Bandwidth int
	// Mu is the departure rate μ_i = 1 / mean holding time.
	Mu float64
	// Handoff is h, the probability a departing portable hands off
	// rather than terminating.
	Handoff float64
}

// validate reports whether the class state is usable.
func (c ClassState) validate() error {
	if c.Bandwidth <= 0 {
		return fmt.Errorf("reserve: bandwidth must be a positive unit count, got %d", c.Bandwidth)
	}
	if c.Mu <= 0 {
		return fmt.Errorf("reserve: mu must be positive, got %v", c.Mu)
	}
	if c.Handoff < 0 || c.Handoff > 1 {
		return fmt.Errorf("reserve: handoff probability out of [0,1]: %v", c.Handoff)
	}
	return nil
}

// stayProb returns p_s,i = e^{-μ_i T}: the probability a connection in
// C_q is still in C_q after the window T.
func (c ClassState) stayProb(T float64) float64 { return math.Exp(-c.Mu * T) }

// moveProb returns p_m,i = (1 - e^{-μ_i T})·h: the probability a
// connection in the neighbor C_s hands off into C_q within T.
func (c ClassState) moveProb(T float64) float64 {
	return (1 - math.Exp(-c.Mu*T)) * c.Handoff
}

// errInfeasible is returned when even the current occupancy violates the
// QoS target.
var errInfeasible = errors.New("reserve: current occupancy already violates P_QOS")

// binomialPMF returns the probability mass function of Binomial(n, p)
// as a slice of length n+1, computed by the stable multiplicative
// recurrence. For p > 1/2 the complementary distribution is computed and
// reflected: anchoring the recurrence at P(0) = (1-p)^n would underflow
// to zero for p near 1 (e.g. n=117, p=0.9985 gives (1-p)^n ≈ 1e-332,
// below the smallest subnormal) and poison every later term — a bug this
// package's property tests caught.
func binomialPMF(n int, p float64) []float64 {
	pmf := make([]float64, n+1)
	if n == 0 {
		pmf[0] = 1
		return pmf
	}
	if p <= 0 {
		pmf[0] = 1
		return pmf
	}
	if p >= 1 {
		pmf[n] = 1
		return pmf
	}
	if p > 0.5 {
		rev := binomialPMF(n, 1-p)
		for k := 0; k <= n; k++ {
			pmf[k] = rev[n-k]
		}
		return pmf
	}
	// P(0) = (1-p)^n computed in log space; with p <= 1/2 this stays
	// above the subnormal floor for any n this package can see
	// (capacities are at most a few hundred units).
	logP0 := float64(n) * math.Log1p(-p)
	pmf[0] = math.Exp(logP0)
	ratio := p / (1 - p)
	for k := 1; k <= n; k++ {
		pmf[k] = pmf[k-1] * ratio * float64(n-k+1) / float64(k)
	}
	return pmf
}

// convolveScaled folds the distribution of b·X (X with the given pmf,
// each unit of X consuming b capacity units) into dist, where
// dist[w] = P(total consumed = w) and the last bin dist[cap+1... ] is
// collapsed into an overflow bucket at index cap+1.
func convolveScaled(dist []float64, pmf []float64, b, capacity int) []float64 {
	out := make([]float64, capacity+2) // 0..capacity plus overflow
	for w, pw := range dist {
		if pw == 0 {
			continue
		}
		for k, pk := range pmf {
			if pk == 0 {
				continue
			}
			v := w + k*b
			if w > capacity { // already overflowed
				v = capacity + 1
			} else if v > capacity {
				v = capacity + 1
			}
			out[v] += float64(pw * pk)
		}
	}
	return out
}

// nonBlockingProb evaluates eq. (5): the probability that the existing
// connections that remain in C_q (j_i ~ Bin(N_i, p_s,i)) plus the
// handoffs arriving from C_s (l_i ~ Bin(s_i, p_m,i)) fit within the cell
// capacity:
//
//	P_nb = P( Σ_i b_i·(j_i + l_i) ≤ B_c ).
//
// N[i] is the admission cap of type i in C_q; s[i] the current count of
// type i in C_s; capacity is B_c in units.
func nonBlockingProb(classes []ClassState, N, s []int, capacity int, T float64) (float64, error) {
	if len(N) != len(classes) || len(s) != len(classes) {
		return 0, fmt.Errorf("reserve: N/s length mismatch: %d classes, %d N, %d s", len(classes), len(N), len(s))
	}
	if capacity < 0 {
		return 0, fmt.Errorf("reserve: negative capacity %d", capacity)
	}
	if T <= 0 {
		return 0, fmt.Errorf("reserve: window must be positive, got %v", T)
	}
	dist := make([]float64, capacity+2)
	dist[0] = 1
	for i, c := range classes {
		if err := c.validate(); err != nil {
			return 0, err
		}
		if N[i] < 0 || s[i] < 0 {
			return 0, fmt.Errorf("reserve: negative occupancy N=%d s=%d", N[i], s[i])
		}
		dist = convolveScaled(dist, binomialPMF(N[i], c.stayProb(T)), c.Bandwidth, capacity)
		dist = convolveScaled(dist, binomialPMF(s[i], c.moveProb(T)), c.Bandwidth, capacity)
	}
	ok := 0.0
	for w := 0; w <= capacity; w++ {
		ok += dist[w]
	}
	if ok > 1 {
		ok = 1
	}
	return ok, nil
}

// resvPlan is the outcome of the probabilistic reservation computation.
type resvPlan struct {
	// MaxConns is N_i: the largest admissible connection count per type
	// in C_q consistent with P_QOS (includes the existing n_i).
	MaxConns []int
	// Reserved is eq. (7)'s b_resv,q = B_c - Σ b_i·N_i in units
	// (never negative).
	Reserved int
	// NonBlocking is P_nb at the chosen MaxConns.
	NonBlocking float64
}

// ProbabilisticPlan computes the §6.3 reservation: starting from the
// current occupancies n (which must stay admissible), it raises the
// admission caps N_i round-robin across types while eq. (6)
// P_nb ≥ 1 - P_QOS still holds, then reserves the remainder of the cell
// capacity for handoffs (eq. 7). s holds the neighbor-cell occupancies.
//
// If the current occupancy n already violates the target, the plan
// returns errInfeasible along with the degenerate plan (caps = n) so the
// caller can still apply its reservation.
func ProbabilisticPlan(classes []ClassState, n, s []int, capacity int, T, pQoS float64) (resvPlan, error) {
	if pQoS <= 0 || pQoS >= 1 {
		return resvPlan{}, fmt.Errorf("reserve: P_QOS must be in (0,1), got %v", pQoS)
	}
	if len(n) != len(classes) || len(s) != len(classes) {
		return resvPlan{}, fmt.Errorf("reserve: n/s length mismatch")
	}
	target := 1 - pQoS
	N := append([]int(nil), n...)
	pnb, err := nonBlockingProb(classes, N, s, capacity, T)
	if err != nil {
		return resvPlan{}, err
	}
	mkPlan := func(p float64) resvPlan {
		used := 0
		for i, c := range classes {
			used += c.Bandwidth * N[i]
		}
		resv := capacity - used
		if resv < 0 {
			resv = 0
		}
		return resvPlan{MaxConns: append([]int(nil), N...), Reserved: resv, NonBlocking: p}
	}
	if pnb < target {
		return mkPlan(pnb), errInfeasible
	}
	// Round-robin growth: bump each type in turn while feasible; a type
	// that no longer fits (bandwidth or probability) drops out.
	active := make([]bool, len(classes))
	usedUnits := 0
	for i, c := range classes {
		usedUnits += c.Bandwidth * N[i]
		active[i] = true
	}
	for {
		progressed := false
		for i, c := range classes {
			if !active[i] {
				continue
			}
			if usedUnits+c.Bandwidth > capacity {
				active[i] = false
				continue
			}
			N[i]++
			p, err := nonBlockingProb(classes, N, s, capacity, T)
			if err != nil {
				return resvPlan{}, err
			}
			if p < target {
				N[i]--
				active[i] = false
				continue
			}
			usedUnits += c.Bandwidth
			pnb = p
			progressed = true
		}
		if !progressed {
			break
		}
	}
	return mkPlan(pnb), nil
}
