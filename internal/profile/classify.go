package profile

import (
	"math"

	"armnet/internal/topology"
)

// The thresholds of the §6.4 learning process, by which a profile server
// categorizes a cell with no configured class from its observed handoff
// behaviour.
const (
	// minHandoffs is the evidence floor below which the cell stays unknown.
	minHandoffs = 30
	// officeMaxVisitors is the largest distinct-visitor population an
	// office can have.
	officeMaxVisitors = 8
	// officeTopShare is the minimum arrival share of the top 4 visitors
	// for the office label.
	officeTopShare = 0.8
	// corridorConsistency is the minimum fraction of departures that
	// follow the cell's dominant prev→next mapping.
	corridorConsistency = 0.7
	// spikeRatio is the max-slot/mean-slot activity ratio above which a
	// lounge is labeled a meeting room.
	spikeRatio = 4
	// cafeteriaCV is the coefficient of variation of slot activity below
	// which a lounge is labeled a cafeteria.
	cafeteriaCV = 0.8
)

// Classify runs the learning process on a cell profile and returns the
// inferred class. The decision order mirrors the paper's taxonomy:
// offices are small closed populations, corridors carry consistent
// pass-through movement, and lounges split by the shape of their slot
// activity (spiky → meeting room, smooth → cafeteria, else default).
// ClassUnknown is returned while evidence is insufficient.
func Classify(c *CellProfile) topology.Class {
	totalArrivals := 0
	for _, v := range c.visitors {
		totalArrivals += v
	}
	if totalArrivals+len(c.history) < minHandoffs {
		return topology.ClassUnknown
	}

	// Office: few distinct visitors dominated by regulars.
	if c.distinctVisitors() > 0 && c.distinctVisitors() <= officeMaxVisitors &&
		c.topVisitorShare(4) >= officeTopShare {
		return topology.ClassOffice
	}

	// Corridor: departures consistently continue in the direction of
	// travel — for each known previous cell, one next cell dominates,
	// and movement rarely bounces back where it came from.
	if consistency, backflow := directionality(c); consistency >= corridorConsistency && backflow < 0.3 {
		return topology.ClassCorridor
	}

	// Lounge subclasses from slot-activity shape.
	act := slotSeries(c)
	if len(act) >= 3 {
		mean, cv, peak := seriesStats(act)
		if mean > 0 {
			if peak/mean >= spikeRatio {
				return topology.ClassMeetingRoom
			}
			if cv <= cafeteriaCV {
				return topology.ClassCafeteria
			}
		}
	}
	return topology.ClassLoungeDefault
}

// directionality measures how predictable departures are given the
// arrival direction: the weighted share of departures that follow the
// dominant prev→next mapping, and the share that return to prev.
func directionality(c *CellProfile) (consistency, backflow float64) {
	total, dominant, back := 0, 0, 0
	for prev, m := range c.byPrev {
		if prev == "" {
			continue
		}
		best := 0
		for next, n := range m {
			total += n
			if n > best {
				best = n
			}
			if next == prev {
				back += n
			}
		}
		dominant += best
	}
	if total == 0 {
		return 0, 0
	}
	return float64(dominant) / float64(total), float64(back) / float64(total)
}

// slotSeries returns the activity (arrivals + departures) of every slot
// seen, in slot order, including interior empty slots.
func slotSeries(c *CellProfile) []float64 {
	slots := map[int64]float64{}
	for s, n := range c.departures {
		slots[s] += float64(n)
	}
	for s, n := range c.arrivals {
		slots[s] += float64(n)
	}
	if len(slots) == 0 {
		return nil
	}
	lo, hi := int64(math.MaxInt64), int64(math.MinInt64)
	for s := range slots {
		lo, hi = min(lo, s), max(hi, s)
	}
	out := make([]float64, 0, hi-lo+1)
	for s := lo; s <= hi; s++ {
		out = append(out, slots[s])
	}
	return out
}

// seriesStats returns mean, coefficient of variation, and peak.
func seriesStats(xs []float64) (mean, cv, peak float64) {
	for _, x := range xs {
		mean += x
		if x > peak {
			peak = x
		}
	}
	mean /= float64(len(xs))
	if mean == 0 {
		return 0, 0, peak
	}
	varsum := 0.0
	for _, x := range xs {
		d := x - mean
		varsum += d * d
	}
	cv = math.Sqrt(varsum/float64(len(xs))) / mean
	return mean, cv, peak
}
