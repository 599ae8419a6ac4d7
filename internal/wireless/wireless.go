// Package wireless models the error-prone, time-varying wireless medium
// that motivates the paper's loose QoS bounds (§2.1): a capacity process
// that modulates the effective throughput of a cell's air interface.
package wireless

import (
	"fmt"
	"math"

	"armnet/internal/des"
	"armnet/internal/eventbus"
	"armnet/internal/randx"
)

// CapacityProcess modulates a cell's effective wireless capacity between a
// set of discrete levels with exponential dwell times — the "time-varying
// effective capacity of the wireless link" that triggers network-initiated
// adaptation (§2.1, §5.3).
type CapacityProcess struct {
	// Levels are the available capacities in bits/s; Level 0 is nominal.
	Levels []float64
	// DwellMean is the mean time spent at a level before re-drawing.
	DwellMean float64
	// Weights bias the level draw; nil means uniform.
	Weights []float64

	level int
	rng   *randx.Rand
	bus   *eventbus.Bus
	link  string

	onChange      func(capacity float64)
	blackoutUntil float64
	preBlackout   int
}

// PublishTo routes every capacity change through the given event bus as a
// CapacityChange tagged with the link name. Call before Attach; a nil bus
// disables publishing.
func (c *CapacityProcess) PublishTo(bus *eventbus.Bus, link string) {
	c.bus = bus
	c.link = link
}

// NewCapacityProcess validates and returns a capacity process at level 0.
func NewCapacityProcess(levels []float64, dwellMean float64, weights []float64, rng *randx.Rand) (*CapacityProcess, error) {
	if len(levels) == 0 {
		return nil, fmt.Errorf("wireless: capacity process needs at least one level")
	}
	for i, l := range levels {
		if !(l > 0) || math.IsInf(l, 1) {
			return nil, fmt.Errorf("wireless: level %d capacity %v must be positive and finite", i, l)
		}
	}
	if !(dwellMean > 0) || math.IsInf(dwellMean, 1) {
		return nil, fmt.Errorf("wireless: dwell mean must be positive and finite, got %v", dwellMean)
	}
	if weights != nil && len(weights) != len(levels) {
		return nil, fmt.Errorf("wireless: %d weights for %d levels", len(weights), len(levels))
	}
	return &CapacityProcess{Levels: levels, DwellMean: dwellMean, Weights: weights, rng: rng}, nil
}

// Capacity returns the current effective capacity.
func (c *CapacityProcess) Capacity() float64 { return c.Levels[c.level] }

// Attach schedules the level process, invoking onChange (which may be nil)
// whenever the effective capacity actually changes.
func (c *CapacityProcess) Attach(sim *des.Simulator, onChange func(capacity float64)) {
	c.onChange = onChange
	if len(c.Levels) == 1 {
		return // nothing to modulate
	}
	var schedule func()
	schedule = func() {
		sim.PostAfter(c.rng.Exp(1/c.DwellMean), func() {
			if sim.Now() < c.blackoutUntil {
				schedule() // level pinned during a blackout
				return
			}
			c.setLevel(c.draw())
			schedule()
		})
	}
	schedule()
}

// setLevel moves to a level, publishing and notifying only on actual
// capacity changes.
func (c *CapacityProcess) setLevel(next int) {
	if next == c.level {
		return
	}
	c.level = next
	eventbus.Pub(c.bus, eventbus.CapacityChange{Link: c.link, Capacity: c.Capacity()})
	if c.onChange != nil {
		c.onChange(c.Capacity())
	}
}

// Blackout forces the process to its worst level for duration seconds —
// the fault-injection model of a deep fade or a jammer. Scheduled dwell
// redraws are suppressed while the blackout lasts; afterwards the
// pre-blackout level is restored and the dwell process resumes.
// Overlapping blackouts extend each other. With a single configured
// level there is nothing worse to fall to, so the call is a no-op.
func (c *CapacityProcess) Blackout(sim *des.Simulator, duration float64) {
	if duration <= 0 || len(c.Levels) == 1 {
		return
	}
	now := sim.Now()
	if now >= c.blackoutUntil {
		c.preBlackout = c.level
	}
	if until := now + duration; until > c.blackoutUntil {
		c.blackoutUntil = until
	}
	c.setLevel(c.worstLevel())
	sim.PostAfter(duration, func() {
		if sim.Now() < c.blackoutUntil {
			return // a later blackout extended this one
		}
		c.setLevel(c.preBlackout)
	})
}

func (c *CapacityProcess) worstLevel() int {
	w := 0
	for i, l := range c.Levels {
		if l < c.Levels[w] {
			w = i
		}
	}
	return w
}

func (c *CapacityProcess) draw() int {
	if c.Weights != nil {
		return c.rng.Categorical(c.Weights)
	}
	return c.rng.Intn(len(c.Levels))
}
