// Package admission implements the paper's Table 2: the round-trip
// admission test and resource reservation for new and handoff connections.
//
// The forward pass checks bandwidth, delay, jitter, buffer and packet-loss
// feasibility hop by hop and tentatively reserves at the greatest level of
// local support; the destination compares accumulated values against the
// end-to-end bounds; the reverse pass relaxes per-hop delays uniformly,
// reclaims over-reserved resources, and commits the final allocation
// (b_min + b_stamp for static portables, b_min for mobile ones).
//
// Per-link bookkeeping lives in Ledger/LinkState, which also tracks the
// advance reservations (b_resv,l) and the dynamically adjustable pool
// (B_dyn) that the advance-reservation algorithms of §6 manipulate.
package admission

import (
	"errors"
	"fmt"
	"math"
	"slices"

	"armnet/internal/stats"
	"armnet/internal/topology"
)

// Alloc is one connection's committed share of one link.
type Alloc struct {
	// Min is the connection's guaranteed bandwidth b_min,j on this link.
	Min float64
	// Cur is the currently allocated bandwidth b_j (adaptation moves it
	// within [Min, b_max]).
	Cur float64
	// Buffer is the committed buffer space in bits.
	Buffer float64
}

// LinkState is the reservation ledger of one directed link.
type LinkState struct {
	Link *topology.Link
	// Capacity is the current effective capacity C_l; it starts at the
	// topology value and tracks wireless capacity processes.
	Capacity float64
	// BufferCapacity is the node buffer space behind the link, in bits.
	BufferCapacity float64
	// AdvanceReserved is b_resv,l: bandwidth advance-reserved for
	// predicted handoffs, unavailable to new connections.
	AdvanceReserved float64
	// PoolFraction is the B_dyn fraction (paper: 5%–20%) withheld from
	// new-connection admission to absorb unforeseen events such as
	// sudden movement of static portables.
	PoolFraction float64
	// Down marks a failed link (fault injection): while set the link
	// admits nothing and advertises no excess. Capacity is kept so
	// restoration returns the link to its pre-failure state.
	Down bool

	// lg is the ledger the link belongs to; its holders own the rows.
	lg *Ledger
	// rows holds the link's allocations in no order: each row's holder
	// records the row's slot, so a write reaches its row without a search.
	// sumMin, sumCur and sumBuf keep their columns' exact totals, updated
	// on every write, so a read walks nothing and the table needs no order.
	rows                   []row
	sumMin, sumCur, sumBuf stats.Sum
}

// row is one connection's allocation on one link.
type row struct {
	h *Holder
	a Alloc
}

// Holder is a connection ID the ledger interned: the link and slot of
// every row it owns. A connection that keeps one (Hold) from its first
// admission to its close hands it to Admit (Test.Holder) and Release, so
// neither hashes the ID. A holder goes back to the ledger for another ID
// only when nothing keeps it: every owner has dropped it and it owns no
// row. The ID forms (Book, Release by name, Test without a Holder) find
// the same holder by its ID, so a held connection may be named either way.
type Holder struct {
	lg     *Ledger
	id     string
	owners int // the Hold calls not yet dropped
	refs   []rowRef
	inline [6]rowRef // refs' first backing: a route of up to six hops
}

// rowRef places one of a holder's rows.
type rowRef struct {
	ls   *LinkState
	slot int
}

// ref returns the holder's ref to its row on ls, or nil.
func (h *Holder) ref(ls *LinkState) *rowRef {
	for k := range h.refs {
		if h.refs[k].ls == ls {
			return &h.refs[k]
		}
	}
	return nil
}

func newLinkState(lg *Ledger, l *topology.Link) *LinkState {
	return &LinkState{
		Link:     l,
		Capacity: l.Capacity,
		// Default buffer: one second's worth of line rate — generous, so
		// buffer admission only bites when configured tighter.
		BufferCapacity: l.Capacity,
		lg:             lg,
	}
}

// Conns returns the IDs of connections holding allocations, sorted. The
// slice is the caller's own.
func (ls *LinkState) Conns() []string {
	ids := make([]string, len(ls.rows))
	for i := range ls.rows {
		ids[i] = ls.rows[i].h.id
	}
	slices.Sort(ids)
	return ids
}

// row returns the connection's row on this link, or nil.
func (ls *LinkState) row(id string) *row {
	if h := ls.lg.holders[id]; h != nil {
		if r := h.ref(ls); r != nil {
			return &ls.rows[r.slot]
		}
	}
	return nil
}

// Alloc returns the allocation of the given connection, if it has one.
func (ls *LinkState) Alloc(id string) (Alloc, bool) {
	if r := ls.row(id); r != nil {
		return r.a, true
	}
	return Alloc{}, false
}

// NumConns returns N_l, the number of connections on the link.
func (ls *LinkState) NumConns() int { return len(ls.rows) }

// SumMin returns Σ b_min,i over ongoing connections. All three sums are
// correctly rounded, so they do not depend on the order connections came
// and went in: these values feed the maxmin protocol's advertised rates,
// which are published.
func (ls *LinkState) SumMin() float64 { return ls.sumMin.Value() }

// SumCur returns Σ b_i, the currently allocated bandwidth.
func (ls *LinkState) SumCur() float64 { return ls.sumCur.Value() }

// SumBuffer returns the committed buffer space.
func (ls *LinkState) SumBuffer() float64 { return ls.sumBuf.Value() }

// unclaimedExcess is the excess bandwidth no connection holds yet:
// b'_av,l − Σ (b_i − b_min,i).
func (ls *LinkState) unclaimedExcess() float64 {
	return ls.ExcessAvailable() - (ls.SumCur() - ls.SumMin())
}

// ExcessAvailable is the paper's b'_av,l := C_l - b_resv,l - Σ b_min,i —
// the bandwidth beyond every connection's guaranteed minimum. A failed
// link offers none.
func (ls *LinkState) ExcessAvailable() float64 {
	if ls.Down {
		return 0
	}
	return ls.Capacity - ls.AdvanceReserved - ls.SumMin()
}

// Pool returns the B_dyn pool size in bits/s. float64() keeps the
// product from fusing into availableFor's subtraction on arm64 and
// ppc64le, so a decision is the same on every architecture.
func (ls *LinkState) Pool() float64 { return float64(ls.PoolFraction * ls.Capacity) }

// availableFor returns the bandwidth a connection of the given kind may
// still claim: new connections must not touch the advance reservation or
// the pool; handoff connections may consume the advance reservation; pool
// claimants (sudden movers) may also dip into B_dyn.
func (ls *LinkState) availableFor(kind Kind) float64 {
	if ls.Down {
		return 0
	}
	switch kind {
	case KindHandoff:
		return ls.Capacity - ls.SumMin()
	case KindPoolClaim:
		return ls.Capacity - ls.SumMin()
	default:
		return ls.Capacity - ls.AdvanceReserved - ls.Pool() - ls.SumMin()
	}
}

// Book commits an allocation for a connection on this link outright —
// the primitive an Admitter other than Table 2 uses to record a decision it reached
// by its own test. Booking the same connection twice overwrites, like
// Table 2's reverse-pass commit. A field that is not finite is refused,
// leaving the link as it was: the kept totals could not take it back out.
func (ls *LinkState) Book(connID string, a Alloc) error {
	if !a.finite() {
		return fmt.Errorf("admission: allocation of %s on %s must be finite, got %+v", connID, ls.Link.ID, a)
	}
	ls.book(ls.lg.intern(connID), a)
	return nil
}

func (a Alloc) finite() bool { return finite(a.Min) && finite(a.Cur) && finite(a.Buffer) }

func finite(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }

// book overwrites the holder's row on this link or appends one.
func (ls *LinkState) book(h *Holder, a Alloc) {
	if r := h.ref(ls); r != nil {
		old := &ls.rows[r.slot]
		ls.tally(old.a, -1)
		old.a = a
	} else {
		h.refs = append(h.refs, rowRef{ls: ls, slot: len(ls.rows)})
		ls.rows = append(ls.rows, row{h: h, a: a})
	}
	ls.tally(a, 1)
}

// release removes the holder's row from this link, if it has one, and
// the holder's ref to it.
func (ls *LinkState) release(h *Holder) {
	if r := h.ref(ls); r != nil {
		ls.drop(r.slot)
		*r = h.refs[len(h.refs)-1]
		h.refs = h.refs[:len(h.refs)-1]
	}
}

// drop removes the row at slot i. The last row moves into the freed slot
// and its holder's ref is renumbered; the dropped row's holder keeps its
// ref, which the caller removes.
func (ls *LinkState) drop(i int) {
	last := len(ls.rows) - 1
	ls.tally(ls.rows[i].a, -1)
	if i != last {
		ls.rows[i] = ls.rows[last]
		ls.rows[i].h.ref(ls).slot = i
	}
	ls.rows[last] = row{}
	ls.rows = ls.rows[:last]
}

// tally adds an allocation's columns to the link's totals (sign 1) or
// takes them back out (sign −1): a Sum undoes Add(x) exactly with Add(−x).
func (ls *LinkState) tally(a Alloc, sign float64) {
	ls.sumMin.Add(sign * a.Min)
	ls.sumCur.Add(sign * a.Cur)
	ls.sumBuf.Add(sign * a.Buffer)
}

// SetAdvance sets the link's advance reservation outright, clamped to
// [0, C_l]. A value that is not finite is refused: NaN would pass both
// clamps and open the bandwidth row to everything.
func (ls *LinkState) SetAdvance(v float64) error {
	if !finite(v) {
		return fmt.Errorf("admission: advance reservation on %s must be finite, got %v", ls.Link.ID, v)
	}
	if v < 0 {
		v = 0
	}
	if v > ls.Capacity {
		v = ls.Capacity
	}
	ls.AdvanceReserved = v
	return nil
}

// Ledger tracks reservation state for every link of a backbone.
type Ledger struct {
	// links finds a link's state by ID at the string-keyed edge of the
	// API; byIndex finds it by the route's own *Link (Link.Index). Links
	// are never added after NewLedger.
	links   map[topology.LinkID]*LinkState
	byIndex []*LinkState
	// ordered is every link state in link-ID order.
	ordered []*LinkState
	// holders interns the connection IDs that hold rows or are held by
	// an owner. free keeps the recycled holders and slab carves new ones,
	// a batch at a time.
	holders map[string]*Holder
	free    []*Holder
	slab    []Holder
}

// Errors returned by the ledger.
var (
	ErrUnknownLink = errors.New("admission: unknown link")
	errNoAlloc     = errors.New("admission: no allocation")
)

// NewLedger builds a ledger covering every link of the backbone.
func NewLedger(b *topology.Backbone) *Ledger {
	all := b.Links()
	lg := &Ledger{
		links:   make(map[topology.LinkID]*LinkState, len(all)),
		byIndex: make([]*LinkState, len(all)),
		holders: make(map[string]*Holder),
	}
	for _, l := range all {
		ls := newLinkState(lg, l)
		lg.links[l.ID] = ls
		lg.byIndex[l.Index] = ls
		lg.ordered = append(lg.ordered, ls)
	}
	return lg
}

// state returns the ledger state of a link of the ledger's own backbone,
// or nil. The index is checked against the link itself, so a link of
// another backbone is unknown even where its ID matches one here.
func (lg *Ledger) state(l *topology.Link) *LinkState {
	if uint(l.Index) < uint(len(lg.byIndex)) {
		if ls := lg.byIndex[l.Index]; ls.Link == l {
			return ls
		}
	}
	return nil
}

// intern returns the connection's holder, making one if it has none.
func (lg *Ledger) intern(id string) *Holder {
	if h := lg.holders[id]; h != nil {
		return h
	}
	var h *Holder
	if n := len(lg.free); n > 0 {
		h, lg.free = lg.free[n-1], lg.free[:n-1]
	} else {
		if len(lg.slab) == 0 {
			lg.slab = make([]Holder, 32)
		}
		h, lg.slab = &lg.slab[0], lg.slab[1:]
		h.lg, h.refs = lg, h.inline[:0]
	}
	h.id = id
	lg.holders[id] = h
	return h
}

// Hold returns the connection's holder and makes the caller one of its
// owners: the holder stays the ID's, rows or none, until the caller
// drops it.
func (lg *Ledger) Hold(id string) *Holder {
	h := lg.intern(id)
	h.owners++
	return h
}

// ID returns the connection ID the holder is interned for.
func (h *Holder) ID() string { return h.id }

// Drop gives the caller's hold back. The caller must not use the holder
// afterwards: once nothing keeps it, another ID may take it.
func (h *Holder) Drop() {
	if h.owners <= 0 {
		panic("admission: Drop of a holder nobody holds")
	}
	h.owners--
	h.settle()
}

// settle recycles the holder if nothing keeps it: no owner holds it and
// it owns no row.
func (h *Holder) settle() {
	if h.owners > 0 || len(h.refs) > 0 {
		return
	}
	lg := h.lg
	delete(lg.holders, h.id)
	h.id = ""
	lg.free = append(lg.free, h)
}

// Link returns the ledger state of a link, or nil.
func (lg *Ledger) Link(id topology.LinkID) *LinkState { return lg.links[id] }

// Links returns all link states sorted by link ID.
func (lg *Ledger) Links() []*LinkState { return slices.Clone(lg.ordered) }

// SetCapacity updates a link's effective capacity (wireless variation).
func (lg *Ledger) SetCapacity(id topology.LinkID, c float64) error {
	ls, ok := lg.links[id]
	if !ok {
		return fmt.Errorf("%w: %s", ErrUnknownLink, id)
	}
	if !(c > 0) || math.IsInf(c, 1) {
		return fmt.Errorf("admission: capacity must be positive and finite, got %v", c)
	}
	ls.Capacity = c
	return nil
}

// Release removes the named connection's allocation from every link of
// the route. Missing allocations are ignored so release is idempotent; a
// link of another backbone holds none.
func (lg *Ledger) Release(connID string, route topology.Route) {
	if h := lg.holders[connID]; h != nil {
		for _, l := range route.Links {
			if ls := lg.state(l); ls != nil {
				ls.release(h)
			}
		}
		h.settle()
	}
}

// Release removes every row the holder owns, each reached by its slot:
// no route, no lookup. It is Ledger.Release over a route when the
// holder's rows all lie on that route, as a connection's rows lie on the
// route it was admitted over.
func (h *Holder) Release() {
	for _, r := range h.refs {
		r.ls.drop(r.slot)
	}
	h.refs = h.refs[:0]
	h.settle()
}

// SetAllocation overwrites the current bandwidth of a connection on one
// link; the adaptation algorithm uses it to apply UPDATE messages. A value
// that is not finite is refused, as Book refuses it.
func (lg *Ledger) SetAllocation(connID string, linkID topology.LinkID, cur float64) error {
	ls, ok := lg.links[linkID]
	if !ok {
		return fmt.Errorf("%w: %s", ErrUnknownLink, linkID)
	}
	if !finite(cur) {
		return fmt.Errorf("admission: allocation of %s on %s must be finite, got %v", connID, linkID, cur)
	}
	r := ls.row(connID)
	if r == nil {
		return fmt.Errorf("%w: %s on %s", errNoAlloc, connID, linkID)
	}
	if cur < r.a.Min {
		cur = r.a.Min
	}
	ls.sumCur.Add(-r.a.Cur)
	ls.sumCur.Add(cur)
	r.a.Cur = cur
	return nil
}
