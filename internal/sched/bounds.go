package sched

// This file transcribes the closed-form per-hop bounds of the paper's
// Table 2. All bandwidths are bits/s, sizes bits, times seconds.
// Notation follows the paper: connection j has traffic envelope
// (σ_j, ρ_j), minimum bandwidth b_min,j, L_max is the largest packet on
// the link, C_l the link speed, l the 1-based hop index, n the hop count.
// A product added to something is written float64(x*y): the conversion
// keeps it from fusing into a multiply-add on arm64 and ppc64le, so every
// architecture admits the same connections.

// Discipline selects which buffer formula of Table 2 applies. It is a
// byte so that admission.Test keeps it in one word with its Kind.
type Discipline uint8

const (
	// DisciplineWFQ uses the footnote-6 buffer row: σ_j + l·L_max.
	DisciplineWFQ Discipline = iota
	// DisciplineRCSP uses the footnote-7 rows with b*(·) RJ regulators.
	DisciplineRCSP
)

// String implements fmt.Stringer.
func (d Discipline) String() string {
	if d == DisciplineRCSP {
		return "rcsp"
	}
	return "wfq"
}

// HopDelay is Table 2's forward-pass per-hop delay term
//
//	d_{l,j} = L_max/b_min,j + L_max/C_l.
func HopDelay(lmax, bmin, linkCapacity float64) float64 {
	return lmax/bmin + lmax/linkCapacity
}

// EndToEndDelayFloor is Table 2's destination-node test value
//
//	d_min,j = (σ_j + n·L_max)/b_min,j + Σ_{i=1..n} L_max/C_i,
//
// the smallest end-to-end delay the network can promise connection j with
// bandwidth b_min over the n-hop route with link capacities caps.
func EndToEndDelayFloor(sigma, lmax, bmin float64, caps []float64) float64 {
	n := float64(len(caps))
	d := (sigma + float64(n*lmax)) / bmin
	for _, c := range caps {
		d += lmax / c
	}
	return d
}

// RelaxedHopDelay is Table 2's reverse-pass per-hop delay after uniform
// relaxation of the slack (d_j - d_min,j) across the n hops:
//
//	d'_{l,j} = d_{l,j} + (d_j - d_min,j)/n + σ_j/(n·b_min,j).
func RelaxedHopDelay(hopDelay, endToEndBound, delayFloor, sigma, bmin float64, hops int) float64 {
	n := float64(hops)
	return hopDelay + (endToEndBound-delayFloor)/n + sigma/(n*bmin)
}

// JitterAtHop is Table 2's forward-pass jitter accumulation through hop l
// (1-based): (σ_j + l·L_max)/b_min,j. At the destination l = n and the
// value must not exceed the connection's jitter bound σ̄.
func JitterAtHop(sigma, lmax, bmin float64, l int) float64 {
	return (sigma + float64(float64(l)*lmax)) / bmin
}

// BufferWFQ is the WFQ per-hop buffer requirement at hop l (1-based):
// σ_j + l·L_max. Under WFQ the burst can grow by one maximum packet per
// upstream hop, so the requirement grows linearly along the path.
func BufferWFQ(sigma, lmax float64, l int) float64 {
	return sigma + float64(float64(l)*lmax)
}

// BufferRCSP is the RCSP per-hop buffer requirement of Table 2's
// footnote-7 rows. During the forward pass the rate is b_max,j (resources
// are reserved at the greatest level of local support and reclaimed on the
// reverse pass, where the allocated rate b_j and relaxed delays d' apply):
//
//	hop 1:  σ_j + L_max + b·d_{1,j}
//	hop l:  σ_j + L_max + b·(d_{l-1,j} + d_{l,j})   (l ≠ 1)
//
// because the regulator reshapes the flow at every hop, the requirement
// depends only on the local and previous hop delays, not on l itself.
func BufferRCSP(sigma, lmax, rate, prevHopDelay, hopDelay float64, l int) float64 {
	if l <= 1 {
		return sigma + lmax + float64(rate*hopDelay)
	}
	return sigma + lmax + float64(rate*(prevHopDelay+hopDelay))
}

// LossOnPath composes per-link packet error probabilities under the
// paper's inter-link independence assumption:
//
//	P(loss) = 1 - Π (1 - p_e,i).
func LossOnPath(perLink []float64) float64 {
	keep := 1.0
	for _, p := range perLink {
		keep *= 1 - p
	}
	return 1 - keep
}

// WFQDelayBound is the classic PGPS end-to-end delay bound for a
// (σ, ρ)-conforming flow with reserved rate g on an n-hop WFQ path:
//
//	D <= σ/g + n·L_max/g + Σ L_max/C_i.
//
// It equals EndToEndDelayFloor with b_min = g and is exported separately
// for the scheduler validation tests, which check that no packet ever
// exceeds it.
func WFQDelayBound(sigma, lmax, g float64, caps []float64) float64 {
	return EndToEndDelayFloor(sigma, lmax, g, caps)
}
