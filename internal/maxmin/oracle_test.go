package maxmin

import "fmt"

// fairShare computes the advertised rate μ_l of §5.3.1 for one link:
// given the link's excess capacity, the recorded rate of every connection
// on the link, and the restricted set R (connections bottlenecked
// elsewhere, consuming their recorded rates), it evaluates
//
//	μ_l = b'_av                              if N_l = 0
//	μ_l = b'_av - b'_R + max_{i∈R} b'_R,i    if N_l = N_R
//	μ_l = (b'_av - b'_R) / (N_l - N_R)       otherwise
//
// restricted is indexed like recorded.
func fairShare(capacity float64, recorded []float64, restricted []bool) float64 {
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

// isMaxMin verifies the maxmin optimality criterion directly from its
// definition (within tolerance eps): the allocation is feasible, and every
// connection is either at its demand or has a bottleneck link — a link
// that is saturated and on which the connection's rate is at least that of
// every other connection crossing the link. This is the package's
// ground-truth oracle for property tests.
func (p Problem) isMaxMin(a allocation, eps float64) error {
	load := make(map[string]float64, len(p.Capacity))
	for _, c := range p.Conns {
		r, ok := a[c.ID]
		if !ok {
			return fmt.Errorf("maxmin: connection %s missing from allocation", c.ID)
		}
		if r < -eps {
			return fmt.Errorf("maxmin: connection %s has negative rate %v", c.ID, r)
		}
		if r > c.Demand+eps {
			return fmt.Errorf("maxmin: connection %s exceeds demand: %v > %v", c.ID, r, c.Demand)
		}
		for _, l := range c.Path {
			load[l] += r
		}
	}
	for l, used := range load {
		if used > p.Capacity[l]+eps {
			return fmt.Errorf("maxmin: link %s overloaded: %v > %v", l, used, p.Capacity[l])
		}
	}
	for _, c := range p.Conns {
		r := a[c.ID]
		if r >= c.Demand-eps {
			continue // satisfied
		}
		bottleneck := false
		for _, l := range c.Path {
			if load[l] < p.Capacity[l]-eps {
				continue // link has slack
			}
			// Saturated link: is c among its top-rate connections?
			top := true
			for _, o := range p.Conns {
				if o.ID == c.ID {
					continue
				}
				onLink := false
				for _, ol := range o.Path {
					if ol == l {
						onLink = true
						break
					}
				}
				if onLink && a[o.ID] > r+eps {
					top = false
					break
				}
			}
			if top {
				bottleneck = true
				break
			}
		}
		if !bottleneck {
			return fmt.Errorf("maxmin: connection %s (rate %v) is unsatisfied with no bottleneck link", c.ID, r)
		}
	}
	return nil
}
