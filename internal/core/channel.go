package core

import (
	"fmt"
	"math"

	"armnet/internal/des"
	"armnet/internal/eventbus"
	"armnet/internal/randx"
)

// capacityProcess models the error-prone, time-varying wireless medium
// that motivates the paper's loose QoS bounds (§2.1): it modulates a
// cell's effective wireless capacity between a set of discrete levels
// with exponential dwell times — the "time-varying effective capacity of
// the wireless link" that triggers network-initiated adaptation (§2.1,
// §5.3). Level 0 is nominal; each redraw is uniform over the levels.
type capacityProcess struct {
	levels    []float64
	dwellMean float64

	level int
	rng   *randx.Rand
	bus   *eventbus.Bus
	link  string

	onChange      func(capacity float64)
	blackoutUntil float64
	preBlackout   int
}

// newCapacityProcess validates and returns a capacity process at level 0
// that publishes every capacity change on bus as a CapacityChange tagged
// with the link name.
func newCapacityProcess(levels []float64, dwellMean float64, rng *randx.Rand, bus *eventbus.Bus, link string) (*capacityProcess, error) {
	if len(levels) == 0 {
		return nil, fmt.Errorf("core: channel capacity process needs at least one level")
	}
	for i, l := range levels {
		if !(l > 0) || math.IsInf(l, 1) {
			return nil, fmt.Errorf("core: channel level %d capacity %v must be positive and finite", i, l)
		}
	}
	if !(dwellMean > 0) || math.IsInf(dwellMean, 1) {
		return nil, fmt.Errorf("core: channel dwell mean must be positive and finite, got %v", dwellMean)
	}
	return &capacityProcess{levels: levels, dwellMean: dwellMean, rng: rng, bus: bus, link: link}, nil
}

// capacity returns the current effective capacity.
func (c *capacityProcess) capacity() float64 { return c.levels[c.level] }

// attach schedules the level process, invoking onChange (which may be nil)
// whenever the effective capacity actually changes.
func (c *capacityProcess) attach(sim *des.Simulator, onChange func(capacity float64)) {
	c.onChange = onChange
	if len(c.levels) == 1 {
		return // nothing to modulate
	}
	var schedule func()
	schedule = func() {
		sim.PostAfter(c.rng.Exp(1/c.dwellMean), func() {
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
func (c *capacityProcess) setLevel(next int) {
	if next == c.level {
		return
	}
	c.level = next
	eventbus.Pub(c.bus, eventbus.CapacityChange{Link: c.link, Capacity: c.capacity()})
	if c.onChange != nil {
		c.onChange(c.capacity())
	}
}

// blackout forces the process to its worst level for duration seconds —
// the fault-injection model of a deep fade or a jammer. Scheduled dwell
// redraws are suppressed while the blackout lasts; afterwards the
// pre-blackout level is restored and the dwell process resumes.
// Overlapping blackouts extend each other. With a single configured
// level there is nothing worse to fall to, so the call is a no-op.
func (c *capacityProcess) blackout(sim *des.Simulator, duration float64) {
	if duration <= 0 || len(c.levels) == 1 {
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

func (c *capacityProcess) worstLevel() int {
	w := 0
	for i, l := range c.levels {
		if l < c.levels[w] {
			w = i
		}
	}
	return w
}

func (c *capacityProcess) draw() int {
	return c.rng.Intn(len(c.levels))
}
