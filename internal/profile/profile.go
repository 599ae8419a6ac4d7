// Package profile implements the paper's profiles and profile servers
// (§3.4.3, Table 1). A portable's profile aggregates its last N_pP
// handoffs into <previous cell, current cell> → next-predicted-cell
// triplets; a cell's profile aggregates its last N_pC handoffs into
// <previous cell → P(next neighbor)> tables plus slotted handoff counts
// that feed the lounge predictors of §6.2. One ProfileServer per zone owns
// both and answers the two prediction levels of §6.
package profile

import (
	"fmt"
	"math"
	"sort"

	"armnet/internal/topology"
)

// Handoff is one observed handoff event: the portable moved From → To,
// and Prev was its cell before From ("" when unknown, e.g. first
// appearance).
type Handoff struct {
	Portable string
	Prev     topology.CellID
	From     topology.CellID
	To       topology.CellID
	Time     float64
}

// transKey indexes the portable triplet table.
type transKey struct {
	prev, cur topology.CellID
}

// PortableProfile is the per-portable aggregated handoff history.
type PortableProfile struct {
	ID string
	// history keeps the last NpP transitions in arrival order.
	history []Handoff
	limit   int
	counts  map[transKey]map[topology.CellID]int
}

// NewPortableProfile returns an empty profile bounded to limit handoffs.
func NewPortableProfile(id string, limit int) *PortableProfile {
	if limit <= 0 {
		limit = 100
	}
	return &PortableProfile{
		ID:     id,
		limit:  limit,
		counts: make(map[transKey]map[topology.CellID]int),
	}
}

// Record folds one handoff into the profile, expiring the oldest entry
// beyond the history limit.
func (p *PortableProfile) Record(h Handoff) {
	p.history = append(p.history, h)
	k := transKey{h.Prev, h.From}
	m := p.counts[k]
	if m == nil {
		m = make(map[topology.CellID]int)
		p.counts[k] = m
	}
	m[h.To]++
	if len(p.history) > p.limit {
		old := p.history[0]
		p.history = p.history[1:]
		ok := transKey{old.Prev, old.From}
		if m := p.counts[ok]; m != nil {
			m[old.To]--
			if m[old.To] <= 0 {
				delete(m, old.To)
			}
			if len(m) == 0 {
				delete(p.counts, ok)
			}
		}
	}
}

// Len returns the number of retained handoffs.
func (p *PortableProfile) Len() int { return len(p.history) }

// Predict returns the next-predicted-cell for the portable given its
// previous and current cells — the Table 1 <prev, cur, next-prd-cell>
// lookup. ok is false when the profile has no matching history.
func (p *PortableProfile) Predict(prev, cur topology.CellID) (topology.CellID, bool) {
	m := p.counts[transKey{prev, cur}]
	if len(m) == 0 {
		return "", false
	}
	return argmaxCell(m), true
}

// PredictAnyPrev aggregates over all previous cells — the fallback when
// the portable's previous cell is unknown.
func (p *PortableProfile) PredictAnyPrev(cur topology.CellID) (topology.CellID, bool) {
	agg := map[topology.CellID]int{}
	for k, m := range p.counts {
		if k.cur != cur {
			continue
		}
		for to, n := range m {
			agg[to] += n
		}
	}
	if len(agg) == 0 {
		return "", false
	}
	return argmaxCell(agg), true
}

// argmaxCell picks the highest-count cell, ties to the smallest ID so
// predictions are deterministic: a total order, so any walk finds it.
func argmaxCell(m map[topology.CellID]int) topology.CellID {
	var best topology.CellID
	bestN := -1
	for id, n := range m {
		if n > bestN || (n == bestN && id < best) {
			best, bestN = id, n
		}
	}
	return best
}

// CellProfile is the per-cell aggregated handoff history: who leaves the
// cell for which neighbor, keyed by where they came from, plus slotted
// departure/arrival counts for the lounge predictors.
type CellProfile struct {
	Cell  topology.CellID
	Class topology.Class

	limit   int
	history []Handoff
	// byPrev[prev][next] counts departures to next given arrival from prev.
	byPrev map[topology.CellID]map[topology.CellID]int
	// total[next] counts departures to next regardless of prev.
	total map[topology.CellID]int

	// Slotted activity for §6.2 predictors.
	slotDur    float64
	departures map[int64]int
	arrivals   map[int64]int
	// visitors counts handoffs into the cell per portable (office
	// regularity detection for the learning process).
	visitors map[string]int
}

// NewCellProfile returns an empty cell profile.
// slotDur is the time-slot width for activity counting (default 60 s).
func NewCellProfile(cell topology.CellID, limit int, slotDur float64) *CellProfile {
	if limit <= 0 {
		limit = 500
	}
	if slotDur <= 0 {
		slotDur = 60
	}
	return &CellProfile{
		Cell:       cell,
		limit:      limit,
		slotDur:    slotDur,
		byPrev:     make(map[topology.CellID]map[topology.CellID]int),
		total:      make(map[topology.CellID]int),
		departures: make(map[int64]int),
		arrivals:   make(map[int64]int),
		visitors:   make(map[string]int),
	}
}

// Slot converts a time to its slot index.
func (c *CellProfile) Slot(t float64) int64 { return int64(math.Floor(t / c.slotDur)) }

// SlotDuration returns the slot width in seconds.
func (c *CellProfile) SlotDuration() float64 { return c.slotDur }

// RecordDeparture folds in a handoff out of this cell (h.From == c.Cell).
func (c *CellProfile) RecordDeparture(h Handoff) {
	c.history = append(c.history, h)
	m := c.byPrev[h.Prev]
	if m == nil {
		m = make(map[topology.CellID]int)
		c.byPrev[h.Prev] = m
	}
	m[h.To]++
	c.total[h.To]++
	c.departures[c.Slot(h.Time)]++
	if len(c.history) > c.limit {
		old := c.history[0]
		c.history = c.history[1:]
		if m := c.byPrev[old.Prev]; m != nil {
			m[old.To]--
			if m[old.To] <= 0 {
				delete(m, old.To)
			}
			if len(m) == 0 {
				delete(c.byPrev, old.Prev)
			}
		}
		c.total[old.To]--
		if c.total[old.To] <= 0 {
			delete(c.total, old.To)
		}
	}
}

// RecordArrival notes a handoff into this cell (h.To == c.Cell).
func (c *CellProfile) RecordArrival(h Handoff) {
	c.arrivals[c.Slot(h.Time)]++
	c.visitors[h.Portable]++
}

// Len returns the retained departure-history length.
func (c *CellProfile) Len() int { return len(c.history) }

// Predict returns the most likely next cell for a portable that entered
// from prev, falling back to the aggregate distribution when prev is
// unknown to the profile.
func (c *CellProfile) Predict(prev topology.CellID) (topology.CellID, bool) {
	if m := c.byPrev[prev]; len(m) > 0 {
		return argmaxCell(m), true
	}
	if len(c.total) > 0 {
		return argmaxCell(c.total), true
	}
	return "", false
}

// Probabilities returns the Table 1 {j, p_j} handoff distribution over
// next cells given the previous cell (aggregate when prev is unknown).
func (c *CellProfile) Probabilities(prev topology.CellID) map[topology.CellID]float64 {
	src := c.byPrev[prev]
	if len(src) == 0 {
		src = c.total
	}
	n := 0
	for _, v := range src {
		n += v
	}
	out := make(map[topology.CellID]float64, len(src))
	if n == 0 {
		return out
	}
	for id, v := range src {
		out[id] = float64(v) / float64(n)
	}
	return out
}

// DeparturesIn returns the number of recorded departures in slot s.
func (c *CellProfile) DeparturesIn(s int64) int { return c.departures[s] }

// ArrivalsIn returns the number of recorded arrivals in slot s.
func (c *CellProfile) ArrivalsIn(s int64) int { return c.arrivals[s] }

// RecentDepartures returns the departure counts for the k slots ending at
// (and including) the slot of time t, oldest first — the n_{t-2}, n_{t-1},
// n_t series the cafeteria least-squares predictor consumes.
func (c *CellProfile) RecentDepartures(t float64, k int) []int {
	s := c.Slot(t)
	out := make([]int, k)
	for i := 0; i < k; i++ {
		out[k-1-i] = c.departures[s-int64(i)]
	}
	return out
}

// RecentArrivals returns the arrival counts for the k slots ending at the
// slot of time t, oldest first — the series the cafeteria self-reservation
// predictor consumes.
func (c *CellProfile) RecentArrivals(t float64, k int) []int {
	s := c.Slot(t)
	out := make([]int, k)
	for i := 0; i < k; i++ {
		out[k-1-i] = c.arrivals[s-int64(i)]
	}
	return out
}

// Visitors returns the number of distinct portables seen entering.
func (c *CellProfile) Visitors() int { return len(c.visitors) }

// TopVisitorShare returns the fraction of arrivals contributed by the k
// most frequent visitors — near 1 for an office with regular occupants.
func (c *CellProfile) TopVisitorShare(k int) float64 {
	if len(c.visitors) == 0 {
		return 0
	}
	counts := make([]int, 0, len(c.visitors))
	total := 0
	for _, v := range c.visitors {
		counts = append(counts, v)
		total += v
	}
	sort.Sort(sort.Reverse(sort.IntSlice(counts)))
	top := 0
	for i := 0; i < k && i < len(counts); i++ {
		top += counts[i]
	}
	return float64(top) / float64(total)
}

// String summarizes the profile for diagnostics.
func (c *CellProfile) String() string {
	return fmt.Sprintf("cell %s (%s): %d departures recorded, %d visitors",
		c.Cell, c.Class, len(c.history), len(c.visitors))
}
