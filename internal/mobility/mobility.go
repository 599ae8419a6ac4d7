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

// add appends a move.
func (t *Trace) add(m Move) { t.Moves = append(t.Moves, m) }

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
	out.add(Move{Portable: id, To: start, Time: t})
	return &walker{id: id, at: start, out: out}
}

func (w *walker) moveTo(to topology.CellID, t float64) {
	if to == w.at {
		return
	}
	w.out.add(Move{Portable: w.id, From: w.at, To: to, Time: t})
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
//
// Each portable's walk is generated whole, in time order, and the walks
// are merged (mergeRuns), not sorted: the trace is the one a stable sort
// by time of the walks one after another gives. A walker moves by cell
// record, so a hop looks up no ID.
func RandomWalk(u *topology.Universe, portables []string, meanDwell, horizon float64, rng *randx.Rand) (*Trace, error) {
	// Written so NaN fails too: a NaN horizon never stops the walk.
	if !(meanDwell > 0 && horizon > 0) || math.IsInf(meanDwell, 0) || math.IsInf(horizon, 0) {
		return nil, fmt.Errorf("mobility: dwell %v and horizon %v must be positive and finite", meanDwell, horizon)
	}
	cells := u.Cells()
	if len(cells) == 0 {
		return nil, fmt.Errorf("mobility: empty universe")
	}
	// neighbors[c.Index] is c's neighbours in Neighbors() order.
	neighbors := make([][]*topology.Cell, len(cells))
	for _, c := range cells {
		for _, id := range c.Neighbors() {
			neighbors[c.Index] = append(neighbors[c.Index], u.Cell(id))
		}
	}
	var gen []Move
	ends := make([]int, 0, len(portables))
	for _, id := range portables {
		t := rng.Float64() * meanDwell
		at := cells[rng.Intn(len(cells))]
		gen = append(gen, Move{Portable: id, To: at.ID, Time: t})
		for {
			t += rng.Exp(1 / meanDwell)
			if t > horizon {
				break
			}
			nbs := neighbors[at.Index]
			if len(nbs) == 0 {
				continue
			}
			to := nbs[rng.Intn(len(nbs))]
			gen = append(gen, Move{Portable: id, From: at.ID, To: to.ID, Time: t})
			at = to
		}
		ends = append(ends, len(gen))
	}
	return &Trace{Moves: mergeRuns(gen, ends)}, nil
}

// mergeRuns merges runs of moves, each already in time order, into one
// time-ordered slice; run i is gen[ends[i-1]:ends[i]]. Simultaneous moves
// keep generation order — the lower run first, and within a run their
// own order — so the result is exactly what Trace.sort's stable sort of
// gen gives, in O(n log k) for k runs instead of a sort of all n.
func mergeRuns(gen []Move, ends []int) []Move {
	if len(gen) == 0 {
		return nil
	}
	// next[r] is run r's next move in gen; heads is a binary min-heap of
	// the runs with moves left, by (time of that move, run).
	type head struct {
		t float64
		r int
	}
	next := make([]int, len(ends))
	heads := make([]head, 0, len(ends))
	start := 0
	for r, end := range ends {
		next[r] = start
		if end > start {
			heads = append(heads, head{gen[start].Time, r})
		}
		start = end
	}
	down := func(i int) {
		for {
			least := i
			for _, c := range [2]int{2*i + 1, 2*i + 2} {
				if c < len(heads) && (heads[c].t < heads[least].t ||
					heads[c].t == heads[least].t && heads[c].r < heads[least].r) {
					least = c
				}
			}
			if least == i {
				return
			}
			heads[i], heads[least] = heads[least], heads[i]
			i = least
		}
	}
	for i := len(heads)/2 - 1; i >= 0; i-- {
		down(i)
	}
	out := make([]Move, 0, len(gen))
	for len(heads) > 0 {
		r := heads[0].r
		out = append(out, gen[next[r]])
		if next[r]++; next[r] < ends[r] {
			heads[0].t = gen[next[r]].Time
		} else {
			heads[0] = heads[len(heads)-1]
			heads = heads[:len(heads)-1]
		}
		down(0)
	}
	return out
}
