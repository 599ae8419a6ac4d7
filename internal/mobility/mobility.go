// Package mobility generates and replays user movement for the
// experiments. The paper's evaluation (§7.1) is built on hand-collected
// traces from the ECE building; since those traces were never published
// beyond their aggregate counts, this package provides synthetic
// generators calibrated to exactly those aggregates:
//
//   - OfficeWeek reproduces the Figure 4 office scenario (faculty 127
//     C→D transits splitting 94/20/13 to A/B/other, students 218
//     splitting 12/173/31, plus the 1384-transit background crowd);
//   - MeetingClass reproduces the §7.1 classroom scenario (arrivals
//     bunched in ~10 minutes around the start, departures in ~5 minutes
//     after the end, with corridor walk-by traffic that never enters);
//   - RandomWalk provides generic graph-walk mobility for integration
//     scenarios.
package mobility

import (
	"fmt"
	"math"
	"slices"

	"armnet/internal/des"
	"armnet/internal/randx"
	"armnet/internal/topology"
)

// Move is one mobility event: the portable appears in To (From == "" on
// first placement) or hands off From → To at Time.
type Move struct {
	Portable string
	From     topology.CellID
	To       topology.CellID
	Time     float64
}

// Trace is a time-ordered sequence of moves.
type Trace struct {
	Moves []Move
}

// sort orders the trace by time (stable, so simultaneous moves keep
// generation order). The comparison is a.Time < b.Time and nothing else:
// two moves neither precedes stay in generation order.
func (t *Trace) sort() {
	slices.SortStableFunc(t.Moves, func(a, b Move) int {
		switch {
		case a.Time < b.Time:
			return -1
		case b.Time < a.Time:
			return 1
		}
		return 0
	})
}

// Append adds a move.
func (t *Trace) Append(m Move) { t.Moves = append(t.Moves, m) }

// Duration returns the time of the last move, or 0 for an empty trace.
func (t *Trace) Duration() float64 {
	if len(t.Moves) == 0 {
		return 0
	}
	return t.Moves[len(t.Moves)-1].Time
}

// Schedule replays the trace on a simulator, invoking handler for each
// move at its timestamp. The trace must be sorted.
func (t *Trace) Schedule(sim *des.Simulator, handler func(Move)) {
	for _, m := range t.Moves {
		m := m
		sim.Post(m.Time, func() { handler(m) })
	}
}

// Validate checks that the trace is time-ordered and every portable's
// moves chain correctly (each move starts where the previous ended).
func (t *Trace) Validate() error {
	last := map[string]topology.CellID{}
	lastTime := 0.0
	for i, m := range t.Moves {
		if m.Time < lastTime {
			return fmt.Errorf("mobility: move %d out of order (%v after %v)", i, m.Time, lastTime)
		}
		lastTime = m.Time
		if prev, ok := last[m.Portable]; ok {
			if m.From != prev {
				return fmt.Errorf("mobility: move %d of %s starts at %s but portable was in %s",
					i, m.Portable, m.From, prev)
			}
		} else if m.From != "" {
			return fmt.Errorf("mobility: first move of %s has From=%s, want placement", m.Portable, m.From)
		}
		last[m.Portable] = m.To
	}
	return nil
}

// walker tracks one portable's position while generating a trace.
type walker struct {
	id  string
	at  topology.CellID
	out *Trace
}

func newWalker(id string, start topology.CellID, t float64, out *Trace) *walker {
	out.Append(Move{Portable: id, To: start, Time: t})
	return &walker{id: id, at: start, out: out}
}

func (w *walker) moveTo(to topology.CellID, t float64) {
	if to == w.at {
		return
	}
	w.out.Append(Move{Portable: w.id, From: w.at, To: to, Time: t})
	w.at = to
}

// walkPath moves the walker through the cells in order, spacing hops by
// hopGap seconds starting at t; it returns the time after the last hop.
func (w *walker) walkPath(path []topology.CellID, t, hopGap float64) float64 {
	for _, c := range path {
		w.moveTo(c, t)
		t += hopGap
	}
	return t
}

// RandomWalk generates graph-walk mobility: each portable starts in a
// uniformly chosen cell and repeatedly dwells Exp(1/meanDwell) before
// hopping to a uniformly chosen neighbor, until the horizon.
func RandomWalk(u *topology.Universe, portables []string, meanDwell, horizon float64, rng *randx.Rand) (*Trace, error) {
	// Written so NaN fails too: a NaN horizon never stops the walk.
	if !(meanDwell > 0 && horizon > 0) || math.IsInf(meanDwell, 0) || math.IsInf(horizon, 0) {
		return nil, fmt.Errorf("mobility: dwell %v and horizon %v must be positive and finite", meanDwell, horizon)
	}
	cells := u.Cells()
	if len(cells) == 0 {
		return nil, fmt.Errorf("mobility: empty universe")
	}
	out := &Trace{}
	for _, id := range portables {
		t := rng.Float64() * meanDwell
		start := cells[rng.Intn(len(cells))].ID
		w := newWalker(id, start, t, out)
		for {
			t += rng.Exp(1 / meanDwell)
			if t > horizon {
				break
			}
			nbs := u.Cell(w.at).Neighbors()
			if len(nbs) == 0 {
				continue
			}
			w.moveTo(nbs[rng.Intn(len(nbs))], t)
		}
	}
	out.sort()
	return out, nil
}
