package core

import (
	"slices"

	"armnet/internal/admission"
	"armnet/internal/sortx"
	"armnet/internal/topology"
)

// cellGeo is one cell as the handoff path reads it, built on first use and
// kept with its multicast plans: the building is fixed (DESIGN.md §3).
type cellGeo struct {
	cell      *topology.Cell
	neighbors []topology.CellID // cloned once
	air       topology.NodeID
	downlink  topology.LinkID                // "" when the cell has none
	ls        *admission.LinkState           // the downlink's ledger row, or nil
	plans     map[topology.NodeID]*mcastPlan // by host
}

// geo returns the cell's record, or nil for an unknown cell.
func (m *Manager) geo(id topology.CellID) *cellGeo {
	if g, ok := m.cells[id]; ok {
		return g
	}
	c := m.Env.Universe.Cell(id)
	if c == nil {
		return nil
	}
	g := &cellGeo{cell: c, neighbors: c.Neighbors(), air: topology.AirNode(id),
		plans: map[topology.NodeID]*mcastPlan{}}
	if l := m.Env.Backbone.Link(c.BaseStation, g.air); l != nil {
		g.downlink, g.ls = l.ID, m.ledger.Link(l.ID)
	}
	m.cells[id] = g
	return g
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
type mcastPlan struct {
	tree *topology.MulticastTree
	legs []mcastLeg
}

// mcastLeg is one branch; its ledger ID is the connection's ID + suffix.
type mcastLeg struct {
	dst    topology.NodeID
	route  topology.Route
	suffix string
}

// plan returns host's multicast plan for a portable in cell (nil if unknown).
func (m *Manager) plan(host topology.NodeID, cell topology.CellID) *mcastPlan {
	g := m.geo(cell)
	if g == nil {
		return nil
	}
	if pl := g.plans[host]; pl != nil {
		return pl
	}
	pl := &mcastPlan{}
	dsts := make([]topology.NodeID, len(g.neighbors))
	for i, nid := range g.neighbors {
		dsts[i] = m.geo(nid).cell.BaseStation
	}
	if tree, err := m.Env.Backbone.Multicast(host, dsts); err == nil {
		pl.tree = &tree
		for _, dst := range sortx.Keys(tree.Branches) {
			if r := tree.Branches[dst]; len(r.Links) > 0 {
				pl.legs = append(pl.legs, mcastLeg{dst, r, "@mc:" + string(dst)})
			}
		}
	}
	g.plans[host] = pl
	return pl
}

// legID returns the connection's ledger ID for the leg, concatenated
// the first time the connection reaches the leg's destination.
func (c *Connection) legID(leg *mcastLeg) string {
	if i := slices.Index(c.legDsts, leg.dst); i >= 0 {
		return c.legIDs[i]
	}
	c.legDsts = append(c.legDsts, leg.dst)
	c.legIDs = append(c.legIDs, c.ID+leg.suffix)
	return c.legIDs[len(c.legIDs)-1]
}
