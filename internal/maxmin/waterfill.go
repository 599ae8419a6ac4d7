package maxmin

import (
	"math"
	"sort"
	"sync"
)

// wfScratch holds WaterFill's working state, pooled so repeated solves
// (oracle checks in chaos audits, sync-solver rounds, arena sweeps)
// reuse one set of index-based slices instead of rebuilding maps per
// call. Every field is fully (re)initialized from the Problem at the
// top of WaterFill, so pooling cannot leak state between solves and the
// result stays bit-identical to the map-based implementation it
// replaced: iteration orders (sorted links, connection slice order) and
// the float operation sequence are unchanged.
type wfScratch struct {
	links   []string       // sorted link names
	linkIdx map[string]int // link name → index in links
	// remaining is the unconsumed capacity per link index.
	remaining []float64
	// frozen marks settled connections by index in Problem.Conns.
	frozen []bool
	// connFlat/connOff flatten each connection's unique link indices
	// (first-appearance order, as uniqueLinks produced).
	connFlat []int32
	connOff  []int
	// onFlat/onOff flatten each link's connection indices (ascending).
	onFlat []int32
	onOff  []int
	// counters reused while building onFlat; stamp dedups a loopy path
	// (stamp[li] == conn index when already counted for that conn).
	fill  []int
	stamp []int
}

var wfPool = sync.Pool{New: func() any { return new(wfScratch) }}

func growInts(s []int, n int) []int {
	if cap(s) < n {
		return make([]int, n)
	}
	return s[:n]
}

// WaterFill computes the maxmin-fair allocation by the classic iterative
// bottleneck algorithm: in each round, find the link (or demand) with the
// smallest fair share among unfrozen connections, freeze every unfrozen
// connection through it at that share, remove the consumed capacity, and
// repeat. Runs in O(rounds · links · conns); rounds <= conns.
//
// The returned allocation is the paper's optimality target (§5.2): fair —
// all connections constrained by a bottleneck get an equal share of it —
// and efficient — every bottleneck is used to capacity.
func WaterFill(p Problem) (Allocation, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	nL, nC := len(p.Capacity), len(p.Conns)
	alloc := make(Allocation, nC)
	sc := wfPool.Get().(*wfScratch)
	defer wfPool.Put(sc)

	// Sorted link names and their indices.
	sc.links = sc.links[:0]
	for l := range p.Capacity {
		sc.links = append(sc.links, l)
	}
	sort.Strings(sc.links)
	links := sc.links
	if sc.linkIdx == nil {
		sc.linkIdx = make(map[string]int, nL)
	} else {
		clear(sc.linkIdx)
	}
	for i, l := range links {
		sc.linkIdx[l] = i
	}

	// Remaining capacity per link index.
	if cap(sc.remaining) < nL {
		sc.remaining = make([]float64, nL)
	}
	remaining := sc.remaining[:nL]
	for i, l := range links {
		remaining[i] = p.Capacity[l]
	}

	// Frozen flags per connection index.
	if cap(sc.frozen) < nC {
		sc.frozen = make([]bool, nC)
	}
	frozen := sc.frozen[:nC]
	for i := range frozen {
		frozen[i] = false
	}

	// Flatten each connection's unique link indices (a loopy path
	// counts a link once for sharing), preserving first-appearance
	// order — the subtraction order of the old uniqueLinks helper.
	sc.stamp = growInts(sc.stamp, nL)
	for i := range sc.stamp {
		sc.stamp[i] = -1
	}
	sc.connOff = growInts(sc.connOff, nC+1)
	sc.connFlat = sc.connFlat[:0]
	for ci := range p.Conns {
		sc.connOff[ci] = len(sc.connFlat)
		for _, l := range p.Conns[ci].Path {
			li := sc.linkIdx[l]
			if sc.stamp[li] != ci {
				sc.stamp[li] = ci
				sc.connFlat = append(sc.connFlat, int32(li))
			}
		}
	}
	sc.connOff[nC] = len(sc.connFlat)
	connLinks := func(ci int) []int32 { return sc.connFlat[sc.connOff[ci]:sc.connOff[ci+1]] }

	// Invert into each link's connection indices, ascending (the same
	// order per-link appends over the conn slice used to produce).
	sc.fill = growInts(sc.fill, nL+1)
	onCnt := sc.fill // reused as counts first, then as fill cursors
	for i := range onCnt[:nL] {
		onCnt[i] = 0
	}
	for ci := range p.Conns {
		for _, li := range connLinks(ci) {
			onCnt[li]++
		}
	}
	sc.onOff = growInts(sc.onOff, nL+1)
	off := 0
	for li := 0; li < nL; li++ {
		sc.onOff[li] = off
		off += onCnt[li]
		onCnt[li] = sc.onOff[li]
	}
	sc.onOff[nL] = off
	if cap(sc.onFlat) < off {
		sc.onFlat = make([]int32, off)
	}
	sc.onFlat = sc.onFlat[:off]
	for ci := range p.Conns {
		for _, li := range connLinks(ci) {
			sc.onFlat[onCnt[li]] = int32(ci)
			onCnt[li]++
		}
	}
	onLink := func(li int) []int32 { return sc.onFlat[sc.onOff[li]:sc.onOff[li+1]] }

	for {
		// Count unfrozen connections per link and find the tightest
		// fair-share level.
		level := math.Inf(1)
		for li := range links {
			n := 0
			for _, ci := range onLink(li) {
				if !frozen[ci] {
					n++
				}
			}
			if n == 0 {
				continue
			}
			share := remaining[li] / float64(n)
			if share < level {
				level = share
			}
		}
		// Demands act as private links.
		demandBound := false
		for ci := range p.Conns {
			if !frozen[ci] && p.Conns[ci].Demand < level {
				level = p.Conns[ci].Demand
				demandBound = true
			}
		}
		if math.IsInf(level, 1) {
			break // nothing unfrozen anywhere
		}
		if level < 0 {
			level = 0
		}

		// Freeze: first connections capped by demand at this level, then
		// connections on saturated links.
		progress := false
		if demandBound {
			for ci := range p.Conns {
				c := &p.Conns[ci]
				if frozen[ci] || c.Demand > level {
					continue
				}
				alloc[c.ID] = c.Demand
				frozen[ci] = true
				progress = true
				for _, li := range connLinks(ci) {
					remaining[li] -= c.Demand
					if remaining[li] < 0 {
						remaining[li] = 0
					}
				}
			}
		}
		for li := range links {
			n := 0
			for _, ci := range onLink(li) {
				if !frozen[ci] {
					n++
				}
			}
			if n == 0 {
				continue
			}
			if remaining[li]/float64(n) > level+1e-15*(1+level) {
				continue // not the bottleneck this round
			}
			for _, ci := range onLink(li) {
				if frozen[ci] {
					continue
				}
				alloc[p.Conns[ci].ID] = level
				frozen[ci] = true
				progress = true
				for _, pl := range connLinks(int(ci)) {
					remaining[pl] -= level
					if remaining[pl] < 0 {
						remaining[pl] = 0
					}
				}
			}
		}
		if !progress {
			// Numerical corner: freeze everything at the level.
			for ci := range p.Conns {
				if !frozen[ci] {
					alloc[p.Conns[ci].ID] = level
					frozen[ci] = true
				}
			}
			break
		}
		allDone := true
		for ci := range p.Conns {
			if !frozen[ci] {
				allDone = false
				break
			}
		}
		if allDone {
			break
		}
	}
	for ci := range p.Conns {
		if _, ok := alloc[p.Conns[ci].ID]; !ok {
			alloc[p.Conns[ci].ID] = 0
		}
	}
	return alloc, nil
}

// uniqueLinks returns the path's links in first-appearance order, each
// once. The sync solver and the bottleneck classifiers use it; WaterFill
// flattens the same ordering into its pooled scratch and Protocol.AddConn
// into the connection's hops.
func uniqueLinks(path []string) []string {
	seen := map[string]bool{}
	out := make([]string, 0, len(path))
	for _, l := range path {
		if !seen[l] {
			seen[l] = true
			out = append(out, l)
		}
	}
	return out
}

// FairShare computes the advertised rate μ_l of §5.3.1 for one link:
// given the link's excess capacity, the recorded rate of every connection
// on the link, and the restricted set R (connections bottlenecked
// elsewhere, consuming their recorded rates), it evaluates
//
//	μ_l = b'_av                              if N_l = 0
//	μ_l = b'_av - b'_R + max_{i∈R} b'_R,i    if N_l = N_R
//	μ_l = (b'_av - b'_R) / (N_l - N_R)       otherwise
//
// restricted is indexed like recorded.
func FairShare(capacity float64, recorded []float64, restricted []bool) float64 {
	n := len(recorded)
	if n == 0 {
		return capacity
	}
	sumR, maxR := 0.0, 0.0
	nR := 0
	for i, r := range recorded {
		if restricted[i] {
			nR++
			sumR += r
			if r > maxR {
				maxR = r
			}
		}
	}
	if nR == n {
		return capacity - sumR + maxR
	}
	return (capacity - sumR) / float64(n-nR)
}

// AdvertisedRate computes the link's consistent advertised rate by the
// restricted-set iteration the paper describes: start with every
// connection unrestricted, so μ = b'_av / N_l; mark the connections whose
// recorded rate is below μ as restricted and re-evaluate FairShare's
// formula over the marked set; repeat until the marks stop moving. The
// paper notes one recalculation suffices after unmarking; we iterate to
// the fixpoint (at most n rounds) for robustness and assert convergence
// in tests. The result is clamped at zero.
func AdvertisedRate(capacity float64, recorded []float64) float64 {
	// The restricted set lives on the stack for realistic link loads
	// (protocol switches advertise to tens of connections, not
	// thousands), so the call is allocation-free.
	var buf [64]bool
	var restricted []bool
	if n := len(recorded); n <= len(buf) {
		restricted = buf[:n]
	} else {
		restricted = make([]bool, n)
	}
	return advertisedRate(capacity, recorded, restricted, -1)
}

// advertisedRate is the restricted-set iteration behind AdvertisedRate
// and the protocol's switches. Row forced, if any, is held unrestricted
// whatever its rate (see linkState.advertisedFor); restricted is scratch
// as long as recorded.
//
// Each iteration is one walk that re-marks the rows against the current
// μ and, over the rows it marks, accumulates FairShare's N_R, b'_R and
// max b'_R,i in the ascending-row order FairShare sums in — so every
// float is the one FairShare(capacity, recorded, restricted) would have
// returned from a second walk, the first share included: with nothing
// restricted that is (capacity − 0.0) / n.
func advertisedRate(capacity float64, recorded []float64, restricted []bool, forced int) float64 {
	n := len(recorded)
	if n == 0 {
		return capacity
	}
	clear(restricted)
	mu := capacity / float64(n)
	for iter := 0; iter <= n; iter++ {
		changed := false
		nR, sumR, maxR := 0, 0.0, 0.0
		for i, r := range recorded {
			want := r < mu && i != forced
			if restricted[i] != want {
				restricted[i] = want
				changed = true
			}
			if want {
				nR++
				sumR += r
				if r > maxR {
					maxR = r
				}
			}
		}
		if !changed {
			break
		}
		if nR == n {
			mu = capacity - sumR + maxR
		} else {
			mu = (capacity - sumR) / float64(n-nR)
		}
	}
	if mu < 0 {
		mu = 0
	}
	return mu
}

// sortedIDs returns the connection IDs of an allocation in stable order;
// exported tests use it for deterministic reporting.
func sortedIDs(a Allocation) []string {
	out := make([]string, 0, len(a))
	for id := range a {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}
