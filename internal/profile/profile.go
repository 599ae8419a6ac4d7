// Package profile implements the paper's profiles and profile servers
// (§3.4.3, Table 1). A portable's profile aggregates its last N_pP
// handoffs into <previous cell, current cell> → next-predicted-cell
// triplets; a cell's profile aggregates its last N_pC handoffs into
// <previous cell → P(next neighbor)> tables plus slotted handoff counts
// that feed the lounge predictors of §6.2. One ProfileServer per zone owns
// both and answers the two prediction levels of §6.
//
// The tables hold cells and portables by number (Numbering), as small
// rows of integers; IDs are read only at the ID-keyed edge and to break
// a tie between two cells.
package profile

import (
	"fmt"
	"math"
	"slices"

	"armnet/internal/topology"
)

// Handoff is one observed handoff event in ID form, as the ID-keyed
// calls of a standalone profile take it: a portable moved From → To at
// Time, and Prev was its cell before From ("" when unknown, e.g. first
// appearance).
type Handoff struct {
	Prev topology.CellID
	From topology.CellID
	To   topology.CellID
	Time float64
}

// step is one handoff as a profile's history keeps it: the numbers of
// the previous (-1 when unknown), current and next cell.
type step struct{ prev, from, to int32 }

// window is a FIFO of the last limit handoffs in a backing array that
// never grows past limit: once full, each push overwrites the oldest.
type window struct {
	buf    []step
	oldest int // buf's oldest entry once it is full
}

// len returns the number of handoffs the window holds.
func (w *window) len() int { return len(w.buf) }

// push adds s and, when the window already held limit handoffs, returns
// the oldest one, which s replaces.
func (w *window) push(s step, limit int) (old step, expired bool) {
	if n := len(w.buf); n < limit {
		if n == cap(w.buf) {
			grown := make([]step, n, min(max(2*n, 16), limit))
			copy(grown, w.buf)
			w.buf = grown
		}
		w.buf = append(w.buf, s)
		return step{}, false
	}
	old, w.buf[w.oldest] = w.buf[w.oldest], s
	w.oldest = (w.oldest + 1) % limit
	return old, true
}

// row counts the handoffs of one <prev, cur> → next key in a window. A
// cell profile's rows leave cur at -1 (the cell is every row's cur), and
// its totals leave prev at -1 too.
type row struct{ prev, cur, next, n int32 }

// rows is a count table: one row per key with a positive count, in no
// particular order — every read is a max or a sum, which order does not
// change. A window of limit handoffs holds at most limit rows.
type rows []row

// add adds d to the key's count: the row appears on its first count and
// goes (swap-deleted) when its count reaches 0.
func (t *rows) add(prev, cur, next, d int32) {
	rs := *t
	for i := range rs {
		r := &rs[i]
		if r.prev == prev && r.cur == cur && r.next == next {
			if r.n += d; r.n <= 0 {
				last := len(rs) - 1
				rs[i] = rs[last]
				*t = rs[:last]
			}
			return
		}
	}
	if d > 0 {
		*t = append(rs, row{prev, cur, next, d})
	}
}

// anyCell matches every cell in argmaxCell's key; unseen, the number of
// an ID no call has named, matches none.
const (
	anyCell int32 = -2
	unseen  int32 = -3
)

// pick is an argmax over next cells in progress: the highest count, ties
// to the smallest cell ID. That is a total order, so the rows' order
// does not matter. A tie compares IDs, never numbers: the numbers follow
// creation order, and the answer must be the one an ID-keyed table gives.
type pick struct{ cell, n int32 }

func (b *pick) offer(x *Numbering, cell, n int32) {
	if n > b.n || (n == b.n && x.cellID(cell) < x.cellID(b.cell)) {
		b.cell, b.n = cell, n
	}
}

// argmaxCell returns the next cell of the rows with key <prev, cur>
// (anyCell matches every cell) that has the highest count, ties to the
// smallest ID; ok is false when no row matches.
func argmaxCell(x *Numbering, t rows, prev, cur int32) (next int32, ok bool) {
	best := pick{cell: -1}
	for _, r := range t {
		if (prev == anyCell || r.prev == prev) && (cur == anyCell || r.cur == cur) {
			best.offer(x, r.next, r.n)
		}
	}
	return best.cell, best.n > 0
}

// argmaxCellAnyPrev is argmaxCell over the counts of the rows with the
// given cur summed per next cell, whatever their prev. The sums are
// taken in place, so it allocates nothing.
func argmaxCellAnyPrev(x *Numbering, t rows, cur int32) (next int32, ok bool) {
	best := pick{cell: -1}
rows:
	for i, r := range t {
		if r.cur != cur {
			continue
		}
		for _, s := range t[:i] {
			if s.cur == cur && s.next == r.next {
				continue rows // summed when the first row of r.next came
			}
		}
		n := r.n
		for _, s := range t[i+1:] {
			if s.cur == cur && s.next == r.next {
				n += s.n
			}
		}
		best.offer(x, r.next, n)
	}
	return best.cell, best.n > 0
}

// portableProfile is the per-portable aggregated handoff history.
type portableProfile struct {
	names *Numbering
	// history keeps the last NpP transitions.
	history window
	limit   int
	counts  rows
}

// NewPortableProfile returns an empty standalone profile bounded to
// limit handoffs, with cell numbers of its own.
func NewPortableProfile(limit int) *portableProfile {
	return newPortableProfile(NewNumbering(nil), limit)
}

func newPortableProfile(x *Numbering, limit int) *portableProfile {
	if limit <= 0 {
		limit = 100
	}
	return &portableProfile{names: x, limit: limit}
}

// Record folds one handoff, given by ID, into the profile.
func (p *portableProfile) Record(h Handoff) {
	x := p.names
	p.record(step{x.cell(h.Prev), x.cell(h.From), x.cell(h.To)})
}

// record folds one handoff into the profile, expiring the oldest entry
// beyond the history limit.
func (p *portableProfile) record(s step) {
	p.counts.add(s.prev, s.from, s.to, 1)
	if old, expired := p.history.push(s, p.limit); expired {
		p.counts.add(old.prev, old.from, old.to, -1)
	}
}

// Predict returns the next-predicted-cell for the portable given its
// previous and current cells — the Table 1 <prev, cur, next-prd-cell>
// lookup. ok is false when the profile has no matching history.
func (p *portableProfile) Predict(prev, cur topology.CellID) (topology.CellID, bool) {
	next, ok := p.predict(p.names.lookup(prev), p.names.lookup(cur))
	return p.names.cellID(next), ok
}

// predict is Predict by cell number.
func (p *portableProfile) predict(prev, cur int32) (int32, bool) {
	return argmaxCell(p.names, p.counts, prev, cur)
}

// predictAnyPrev aggregates over all previous cells — the fallback when
// the portable's previous cell is unknown.
func (p *portableProfile) predictAnyPrev(cur int32) (int32, bool) {
	return argmaxCellAnyPrev(p.names, p.counts, cur)
}

// CellProfile is the per-cell aggregated handoff history: who leaves the
// cell for which neighbor, keyed by where they came from, plus slotted
// departure/arrival counts for the lounge predictors.
type CellProfile struct {
	Cell  topology.CellID
	Class topology.Class

	names   *Numbering
	limit   int
	history window
	// byPrev counts departures to next given arrival from prev
	// (<prev, -1> → next rows).
	byPrev rows
	// total counts departures to next regardless of prev
	// (<-1, -1> → next rows).
	total rows

	// Slotted activity for §6.2 predictors, counted per slot from the
	// first slot seen, so a cell no one crosses costs none.
	slotDur    float64
	departures slotCounts
	arrivals   slotCounts
	// visitors counts handoffs into the cell by portable number (office
	// regularity detection for the learning process); distinct counts
	// its nonzero entries and arrived their sum.
	visitors []int32
	distinct int
	arrived  int
}

// NewCellProfile returns an empty standalone cell profile, with cell and
// portable numbers of its own. slotDur is the time-slot width for
// activity counting (default 60 s).
func NewCellProfile(cell topology.CellID, limit int, slotDur float64) *CellProfile {
	return newCellProfile(cell, NewNumbering(nil), limit, slotDur)
}

func newCellProfile(cell topology.CellID, x *Numbering, limit int, slotDur float64) *CellProfile {
	if limit <= 0 {
		limit = 500
	}
	if slotDur <= 0 {
		slotDur = 60
	}
	return &CellProfile{Cell: cell, names: x, limit: limit, slotDur: slotDur}
}

// slotCounts counts events per time slot, densely: n[i] is the count of
// slot base+i, from the earliest slot counted to the latest. A count in
// a slot before base prepends the slots up to it, one after the last
// appends; both ends always hold a count, so the span is exactly the
// slots seen, interior empty ones included.
type slotCounts struct {
	base int64
	n    []int32
}

// add counts one event in slot s.
func (c *slotCounts) add(s int64) {
	switch {
	case len(c.n) == 0:
		c.base = s
	case s < c.base:
		grown := make([]int32, c.base-s+int64(len(c.n)))
		copy(grown[c.base-s:], c.n)
		c.base, c.n = s, grown
	}
	for s-c.base >= int64(len(c.n)) {
		c.n = append(c.n, 0)
	}
	c.n[s-c.base]++
}

// at returns the count of slot s.
func (c *slotCounts) at(s int64) int {
	if i := s - c.base; i >= 0 && i < int64(len(c.n)) {
		return int(c.n[i])
	}
	return 0
}

// Slot converts a time to its slot index.
func (c *CellProfile) Slot(t float64) int64 { return int64(math.Floor(t / c.slotDur)) }

// RecordDeparture folds in a handoff out of this cell (h.From == c.Cell),
// given by ID.
func (c *CellProfile) RecordDeparture(h Handoff) {
	c.recordDeparture(c.names.cell(h.Prev), c.names.cell(h.To), h.Time)
}

// recordDeparture folds in a departure to cell number to by a portable
// that came from prev.
func (c *CellProfile) recordDeparture(prev, to int32, t float64) {
	c.byPrev.add(prev, -1, to, 1)
	c.total.add(-1, -1, to, 1)
	c.departures.add(c.Slot(t))
	if old, expired := c.history.push(step{prev: prev, from: -1, to: to}, c.limit); expired {
		c.byPrev.add(old.prev, -1, old.to, -1)
		c.total.add(-1, -1, old.to, -1)
	}
}

// recordArrival notes a handoff into this cell by portable number n.
func (c *CellProfile) recordArrival(n int, t float64) {
	c.arrivals.add(c.Slot(t))
	if n >= len(c.visitors) {
		c.visitors = append(c.visitors, make([]int32, n+1-len(c.visitors))...)
	}
	if c.visitors[n] == 0 {
		c.distinct++
	}
	c.visitors[n]++
	c.arrived++
}

// Predict returns the most likely next cell for a portable that entered
// from prev, falling back to the aggregate distribution when prev is
// unknown to the profile.
func (c *CellProfile) Predict(prev topology.CellID) (topology.CellID, bool) {
	next, ok := c.predict(c.names.lookup(prev))
	return c.names.cellID(next), ok
}

// predict is Predict by cell number.
func (c *CellProfile) predict(prev int32) (int32, bool) {
	if next, ok := argmaxCell(c.names, c.byPrev, prev, -1); ok {
		return next, true
	}
	return argmaxCell(c.names, c.total, anyCell, anyCell)
}

// Probabilities returns the Table 1 {j, p_j} handoff distribution over
// next cells given the previous cell (aggregate when prev is unknown).
func (c *CellProfile) Probabilities(prev topology.CellID) map[topology.CellID]float64 {
	pi := c.names.lookup(prev)
	src, n := c.byPrev, int32(0)
	for _, r := range src {
		if r.prev == pi {
			n += r.n
		}
	}
	if n == 0 {
		src, pi = c.total, -1
		for _, r := range src {
			n += r.n
		}
	}
	out := make(map[topology.CellID]float64)
	if n == 0 {
		return out
	}
	for _, r := range src {
		if r.prev == pi {
			out[c.names.cellID(r.next)] = float64(r.n) / float64(n)
		}
	}
	return out
}

// DeparturesIn returns the number of recorded departures in slot s.
func (c *CellProfile) DeparturesIn(s int64) int { return c.departures.at(s) }

// RecentDepartures returns the departure counts for the k slots ending at
// (and including) the slot of time t, oldest first — the n_{t-2}, n_{t-1},
// n_t series the cafeteria least-squares predictor consumes.
func (c *CellProfile) RecentDepartures(t float64, k int) []int {
	s := c.Slot(t)
	out := make([]int, k)
	for i := 0; i < k; i++ {
		out[k-1-i] = c.departures.at(s - int64(i))
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
		out[k-1-i] = c.arrivals.at(s - int64(i))
	}
	return out
}

// topVisitorShare returns the fraction of arrivals contributed by the k
// most frequent visitors — near 1 for an office with regular occupants.
func (c *CellProfile) topVisitorShare(k int) float64 {
	if c.distinct == 0 {
		return 0
	}
	counts := make([]int32, 0, c.distinct)
	for _, v := range c.visitors {
		if v > 0 {
			counts = append(counts, v)
		}
	}
	slices.Sort(counts)
	top := 0
	for i := len(counts) - 1; i >= 0 && i >= len(counts)-k; i-- {
		top += int(counts[i])
	}
	return float64(top) / float64(c.arrived)
}

// String summarizes the profile for diagnostics, with the top-4 visitor
// share the learning process reads for an office.
func (c *CellProfile) String() string {
	return fmt.Sprintf("cell %s (%s): %d departures recorded, %d visitors, top-4 share %v",
		c.Cell, c.Class, c.history.len(), c.distinct, c.topVisitorShare(4))
}
