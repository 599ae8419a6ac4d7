package core

import (
	"math"

	"armnet/internal/admission"
	"armnet/internal/sortx"
	"armnet/internal/topology"
)

// cellGeo is one cell as the handoff path reads it, built for every cell
// with the manager and kept with its multicast plans, advance book and
// meetings: the building is fixed (DESIGN.md §3). Manager.cells holds it
// at the cell's Index, and a portable holds its current cell's record, so
// the path reaches a cell by pointer, not by name.
type cellGeo struct {
	cell      *topology.Cell
	neighbors []*cellGeo // in the cell's neighbour (ID) order
	air       topology.NodeID
	downlink  topology.LinkID      // "" when the cell has none
	ls        *admission.LinkState // the downlink's ledger row, or nil
	plans     []*mcastPlan         // by the host's position in Env.Hosts
	book      *advanceBook         // nil until a source first reserves here
	meetings  []*meetingState      // a meeting room's calendar entries
}

// buildCells makes every cell's record, indexed by Cell.Index.
func (m *Manager) buildCells() {
	cells := m.Env.Universe.Cells()
	m.cells = make([]*cellGeo, len(cells))
	for _, c := range cells {
		g := &cellGeo{cell: c, air: topology.AirNode(c.ID), plans: make([]*mcastPlan, len(m.Env.Hosts))}
		if l := m.Env.Backbone.Link(c.BaseStation, g.air); l != nil {
			g.downlink, g.ls = l.ID, m.ledger.Link(l.ID)
		}
		m.cells[c.Index] = g
	}
	for _, g := range m.cells {
		for _, nid := range g.cell.Neighbors() {
			g.neighbors = append(g.neighbors, m.geo(nid))
		}
	}
	m.staticMax = make([]float64, len(cells))
}

// geo returns the cell's record, or nil for an unknown cell: the one
// place a cell is found by name.
func (m *Manager) geo(id topology.CellID) *cellGeo {
	if c := m.Env.Universe.Cell(id); c != nil {
		return m.cells[c.Index]
	}
	return nil
}

// downlink returns the wireless downlink (bs → air) of a cell.
func (m *Manager) downlink(cell topology.CellID) topology.LinkID {
	if g := m.geo(cell); g != nil {
		return g.downlink
	}
	return ""
}

// mcastPlan is the wired multicast pre-setup (§4) from one host toward a
// cell's neighbour base stations: the tree (nil if one is unreachable) and
// its non-empty branches as legs, in the ascending order they are admitted.
// The legs' keys lie in [lo, hi) (meaningless for a plan with no legs).
type mcastPlan struct {
	tree   *topology.MulticastTree
	legs   []mcastLeg
	lo, hi int32
}

// mcastLeg is one branch; its ledger ID is the connection's ID + suffix,
// and key numbers its destination densely across the manager's plans.
type mcastLeg struct {
	dst    topology.NodeID
	route  topology.Route
	suffix string
	key    int32
}

// plan returns the multicast plan from the host at position host of
// Env.Hosts for a portable in the cell.
func (m *Manager) plan(host int32, g *cellGeo) *mcastPlan {
	if pl := g.plans[host]; pl != nil {
		return pl
	}
	pl := &mcastPlan{lo: math.MaxInt32}
	dsts := make([]topology.NodeID, len(g.neighbors))
	for i, n := range g.neighbors {
		dsts[i] = n.cell.BaseStation
	}
	if tree, err := m.Env.Backbone.Multicast(m.Env.Hosts[host], dsts); err == nil {
		pl.tree = &tree
		for _, dst := range sortx.Keys(tree.Branches) {
			if r := tree.Branches[dst]; len(r.Links) > 0 {
				key, ok := m.legKeys[dst]
				if !ok {
					key = int32(len(m.legKeys))
					m.legKeys[dst] = key
				}
				pl.lo, pl.hi = min(pl.lo, key), max(pl.hi, key+1)
				pl.legs = append(pl.legs, mcastLeg{dst, r, "@mc:" + string(dst), key})
			}
		}
	}
	g.plans[host] = pl
	return pl
}

// reach widens the connection's leg table to every key of a plan with
// legs, in one allocation: the table covers the keys [legBase,
// legBase+len(legs)) of the destinations the connection has reached, so
// a connection that reaches one plan keeps no more than its key span.
func (c *Connection) reach(pl *mcastPlan) {
	lo, hi := pl.lo, pl.hi
	if n := int32(len(c.legs)); n > 0 {
		if lo >= c.legBase && hi <= c.legBase+n {
			return
		}
		lo, hi = min(lo, c.legBase), max(hi, c.legBase+n)
	}
	legs := make([]*admission.Holder, hi-lo)
	if len(c.legs) > 0 {
		copy(legs[c.legBase-lo:], c.legs)
	}
	c.legs, c.legBase = legs, lo
}

// legHolder returns the connection's ledger holder for a leg of the plan
// it reached last, taking it (and concatenating the leg's ID) the first
// time the connection reaches the leg's destination.
func (c *Connection) legHolder(lg *admission.Ledger, leg *mcastLeg) *admission.Holder {
	h := &c.legs[leg.key-c.legBase]
	if *h == nil {
		*h = lg.Hold(c.ID + leg.suffix)
	}
	return *h
}
