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
	errEmptyPath     = errors.New("maxmin: connection with empty path")
	errUnknownLink   = errors.New("maxmin: path references unknown link")
	errBadCapacity   = errors.New("maxmin: negative or non-finite link capacity")
	errBadDemand     = errors.New("maxmin: negative demand")
	errDuplicateConn = errors.New("maxmin: duplicate connection id")
)

// validate checks the instance for structural errors.
func (p Problem) validate() error {
	for l, c := range p.Capacity {
		if c < 0 || math.IsNaN(c) {
			return fmt.Errorf("%w: link %s = %v", errBadCapacity, l, c)
		}
	}
	seen := make(map[string]bool, len(p.Conns))
	for _, c := range p.Conns {
		if seen[c.ID] {
			return fmt.Errorf("%w: %s", errDuplicateConn, c.ID)
		}
		seen[c.ID] = true
		if len(c.Path) == 0 {
			return fmt.Errorf("%w: %s", errEmptyPath, c.ID)
		}
		if c.Demand < 0 || math.IsNaN(c.Demand) {
			return fmt.Errorf("%w: %s demand %v", errBadDemand, c.ID, c.Demand)
		}
		for _, l := range c.Path {
			if _, ok := p.Capacity[l]; !ok {
				return fmt.Errorf("%w: %s uses %s", errUnknownLink, c.ID, l)
			}
		}
	}
	return nil
}

// allocation maps connection IDs to their maxmin rates.
type allocation map[string]float64

// MaxDiff returns the largest absolute rate difference between two
// allocations over the union of their keys.
func (a allocation) MaxDiff(b allocation) float64 {
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

// sortedLinks returns the problem's link names in stable order.
func (p Problem) sortedLinks() []string {
	out := make([]string, 0, len(p.Capacity))
	for l := range p.Capacity {
		out = append(out, l)
	}
	sort.Strings(out)
	return out
}
