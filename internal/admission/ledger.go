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

	"armnet/internal/sortx"
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

	// allocs holds the link's allocations by connection ID. sumMin,
	// sumCur and sumBuf keep their columns' exact totals, updated on every
	// write, so a read walks nothing and the table needs no order.
	allocs                 map[string]Alloc
	sumMin, sumCur, sumBuf stats.Sum
}

func newLinkState(l *topology.Link) *LinkState {
	return &LinkState{
		Link:     l,
		Capacity: l.Capacity,
		// Default buffer: one second's worth of line rate — generous, so
		// buffer admission only bites when configured tighter.
		BufferCapacity: l.Capacity,
		allocs:         make(map[string]Alloc),
	}
}

// Conns returns the IDs of connections holding allocations, sorted. The
// slice is the caller's own.
func (ls *LinkState) Conns() []string { return sortx.Keys(ls.allocs) }

// Alloc returns the allocation of the given connection, if it has one.
func (ls *LinkState) Alloc(id string) (Alloc, bool) {
	a, ok := ls.allocs[id]
	return a, ok
}

// NumConns returns N_l, the number of connections on the link.
func (ls *LinkState) NumConns() int { return len(ls.allocs) }

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

// Pool returns the B_dyn pool size in bits/s.
func (ls *LinkState) Pool() float64 { return ls.PoolFraction * ls.Capacity }

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
	if !finite(a.Min) || !finite(a.Cur) || !finite(a.Buffer) {
		return fmt.Errorf("admission: allocation of %s on %s must be finite, got %+v", connID, ls.Link.ID, a)
	}
	if old, ok := ls.allocs[connID]; ok {
		ls.tally(old, -1)
	}
	ls.allocs[connID] = a
	ls.tally(a, 1)
	return nil
}

func finite(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }

// release removes the connection's allocation, if any.
func (ls *LinkState) release(connID string) {
	if old, ok := ls.allocs[connID]; ok {
		delete(ls.allocs, connID)
		ls.tally(old, -1)
	}
}

// tally adds an allocation's columns to the link's totals (sign 1) or
// takes them back out (sign −1): a Sum undoes Add(x) exactly with Add(−x).
func (ls *LinkState) tally(a Alloc, sign float64) {
	ls.sumMin.Add(sign * a.Min)
	ls.sumCur.Add(sign * a.Cur)
	ls.sumBuf.Add(sign * a.Buffer)
}

// Ledger tracks reservation state for every link of a backbone.
type Ledger struct {
	links map[topology.LinkID]*LinkState
	// ordered is every link state in link-ID order; links are never
	// added after NewLedger.
	ordered []*LinkState
}

// Errors returned by the ledger.
var (
	ErrUnknownLink = errors.New("admission: unknown link")
	errNoAlloc     = errors.New("admission: no allocation")
)

// NewLedger builds a ledger covering every link of the backbone.
func NewLedger(b *topology.Backbone) *Ledger {
	lg := &Ledger{links: make(map[topology.LinkID]*LinkState)}
	for _, l := range b.Links() {
		ls := newLinkState(l)
		lg.links[l.ID] = ls
		lg.ordered = append(lg.ordered, ls)
	}
	return lg
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

// SetAdvance sets the advance reservation on a link outright.
func (lg *Ledger) SetAdvance(id topology.LinkID, v float64) error {
	ls, ok := lg.links[id]
	if !ok {
		return fmt.Errorf("%w: %s", ErrUnknownLink, id)
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

// Release removes the named connection's allocation from every link of
// the route. Missing allocations are ignored so release is idempotent.
func (lg *Ledger) Release(connID string, route topology.Route) {
	for _, l := range route.Links {
		if ls, ok := lg.links[l.ID]; ok {
			ls.release(connID)
		}
	}
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
	a, ok := ls.allocs[connID]
	if !ok {
		return fmt.Errorf("%w: %s on %s", errNoAlloc, connID, linkID)
	}
	if cur < a.Min {
		cur = a.Min
	}
	ls.sumCur.Add(-a.Cur)
	ls.sumCur.Add(cur)
	a.Cur = cur
	ls.allocs[connID] = a
	return nil
}
