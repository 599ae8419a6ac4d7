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
	if c.arrived+c.history.len() < minHandoffs {
		return topology.ClassUnknown
	}

	// Office: few distinct visitors dominated by regulars.
	if c.distinct > 0 && c.distinct <= officeMaxVisitors &&
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
rows:
	for i, r := range c.byPrev {
		if r.prev == -1 {
			continue
		}
		total += int(r.n)
		if r.next == r.prev {
			back += int(r.n)
		}
		for _, s := range c.byPrev[:i] {
			if s.prev == r.prev {
				continue rows // its prev's best is already counted
			}
		}
		best := r.n
		for _, s := range c.byPrev[i+1:] {
			if s.prev == r.prev {
				best = max(best, s.n)
			}
		}
		dominant += int(best)
	}
	if total == 0 {
		return 0, 0
	}
	return float64(dominant) / float64(total), float64(back) / float64(total)
}

// slotSeries returns the activity (arrivals + departures) of every slot
// seen, in slot order, including interior empty slots.
func slotSeries(c *CellProfile) []float64 {
	d, a := &c.departures, &c.arrivals
	lo, hi := int64(math.MaxInt64), int64(math.MinInt64)
	for _, sc := range []*slotCounts{d, a} {
		if len(sc.n) > 0 {
			lo, hi = min(lo, sc.base), max(hi, sc.base+int64(len(sc.n))-1)
		}
	}
	if lo > hi {
		return nil
	}
	out := make([]float64, hi-lo+1)
	for i := range out {
		s := lo + int64(i)
		out[i] = float64(d.at(s)) + float64(a.at(s))
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
		varsum += float64(d * d)
	}
	cv = math.Sqrt(varsum/float64(len(xs))) / mean
	return mean, cv, peak
}
