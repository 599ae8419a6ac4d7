// Package maxmin implements the paper's bandwidth conflict-resolution and
// adaptation machinery (§5.2–5.3): the maxmin-fair allocation of excess
// bandwidth among connections, computed three ways that must agree —
//
//   - WaterFill: the centralized textbook algorithm, used as ground truth;
//   - SyncSolver: the distributed advertised-rate iteration of [8]
//     executed in synchronous rounds;
//   - Protocol: the full event-driven ADVERTISE/UPDATE message protocol,
//     including the paper's M(l) refinement that floods control packets
//     only along bottleneck sets.
//
// Throughout the package "capacity" means a link's *excess* capacity
// b'_av,l = C_l - b_resv,l - Σ b_min,i, and a connection's "rate" is the
// excess beyond its guaranteed b_min, capped by its demand b_max - b_min.
package maxmin

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// Inf is the demand of a connection that can absorb any bandwidth.
var Inf = math.Inf(1)

// Conn is one connection competing for excess bandwidth.
type Conn struct {
	ID string
	// Path is the ordered list of links the connection traverses.
	Path []string
	// Demand caps the rate (b_max - b_min); use Inf for unbounded.
	Demand float64
}

// Problem is a maxmin allocation instance.
type Problem struct {
	// Capacity maps each link to its excess capacity b'_av,l >= 0.
	Capacity map[string]float64
	Conns    []Conn
}

// Validation errors.
var (
	ErrEmptyPath     = errors.New("maxmin: connection with empty path")
	ErrUnknownLink   = errors.New("maxmin: path references unknown link")
	ErrBadCapacity   = errors.New("maxmin: negative or non-finite link capacity")
	ErrBadDemand     = errors.New("maxmin: negative demand")
	ErrDuplicateConn = errors.New("maxmin: duplicate connection id")
)

// Validate checks the instance for structural errors.
func (p Problem) Validate() error {
	for l, c := range p.Capacity {
		if c < 0 || math.IsNaN(c) {
			return fmt.Errorf("%w: link %s = %v", ErrBadCapacity, l, c)
		}
	}
	seen := make(map[string]bool, len(p.Conns))
	for _, c := range p.Conns {
		if seen[c.ID] {
			return fmt.Errorf("%w: %s", ErrDuplicateConn, c.ID)
		}
		seen[c.ID] = true
		if len(c.Path) == 0 {
			return fmt.Errorf("%w: %s", ErrEmptyPath, c.ID)
		}
		if c.Demand < 0 || math.IsNaN(c.Demand) {
			return fmt.Errorf("%w: %s demand %v", ErrBadDemand, c.ID, c.Demand)
		}
		for _, l := range c.Path {
			if _, ok := p.Capacity[l]; !ok {
				return fmt.Errorf("%w: %s uses %s", ErrUnknownLink, c.ID, l)
			}
		}
	}
	return nil
}

// Allocation maps connection IDs to their maxmin rates.
type Allocation map[string]float64

// MaxDiff returns the largest absolute rate difference between two
// allocations over the union of their keys.
func (a Allocation) MaxDiff(b Allocation) float64 {
	worst := 0.0
	keys := map[string]bool{}
	for k := range a {
		keys[k] = true
	}
	for k := range b {
		keys[k] = true
	}
	for k := range keys {
		d := math.Abs(a[k] - b[k])
		if d > worst {
			worst = d
		}
	}
	return worst
}

// IsMaxMin verifies the maxmin optimality criterion directly from its
// definition (within tolerance eps): the allocation is feasible, and every
// connection is either at its demand or has a bottleneck link — a link
// that is saturated and on which the connection's rate is at least that of
// every other connection crossing the link. This is the package's
// ground-truth oracle for property tests.
func (p Problem) IsMaxMin(a Allocation, eps float64) error {
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

// sortedLinks returns the problem's link names in stable order.
func (p Problem) sortedLinks() []string {
	out := make([]string, 0, len(p.Capacity))
	for l := range p.Capacity {
		out = append(out, l)
	}
	sort.Strings(out)
	return out
}
