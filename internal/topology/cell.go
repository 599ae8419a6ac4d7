// Package topology models the physical layout of an indoor mobile
// computing environment (paper §3): the cellular universe of overlapping
// pico-cells grouped into zones, the class of each cell (office, corridor,
// lounge), and the wired backbone of switches and links that connects the
// base stations.
package topology

import (
	"errors"
	"fmt"
	"sort"

	"armnet/internal/sortx"
)

// CellID names a cell. The paper's Figure 4 uses single letters (A–G);
// larger scenarios use structured names such as "office-3".
type CellID string

// NodeID names a backbone node (base station, switch, or wired host).
type NodeID string

// Class is the paper's location-based cell classification (§3.4.1).
type Class int

const (
	// ClassUnknown marks a cell whose class has not been learned yet;
	// the default reservation algorithm applies until the profile server
	// categorizes it (paper §6.4).
	ClassUnknown Class = iota
	// ClassOffice is a cell with a small set of regular occupants.
	ClassOffice
	// ClassCorridor is a cell with predominantly linear movement.
	ClassCorridor
	// ClassMeetingRoom is a lounge with handoff spikes at meeting
	// boundaries, driven by a booking calendar.
	ClassMeetingRoom
	// ClassCafeteria is a lounge with a slowly time-varying handoff
	// profile.
	ClassCafeteria
	// ClassLoungeDefault is a lounge with random time-varying handoffs.
	ClassLoungeDefault
)

// String implements fmt.Stringer.
func (c Class) String() string {
	switch c {
	case ClassUnknown:
		return "unknown"
	case ClassOffice:
		return "office"
	case ClassCorridor:
		return "corridor"
	case ClassMeetingRoom:
		return "meeting-room"
	case ClassCafeteria:
		return "cafeteria"
	case ClassLoungeDefault:
		return "lounge-default"
	default:
		return fmt.Sprintf("Class(%d)", int(c))
	}
}

// Cell is one pico-cell: a base station and the geographical region it
// serves. Neighbors overlap so handoffs are seamless (§3.1).
type Cell struct {
	ID    CellID
	Class Class
	Zone  string
	// Capacity is the wireless link throughput of the cell in bits/s
	// (the paper's simulations use 1.6 Mb/s).
	Capacity float64
	// Occupants lists the portables that are regular occupants of an
	// office cell — the ω(c) function of Table 1. Empty for non-offices.
	Occupants []string
	// BaseStation is the backbone node implementing this cell's base
	// station.
	BaseStation NodeID

	neighbors sortx.IDs[CellID]
}

// Neighbors returns the cell's neighbor IDs in sorted order — the η(c)
// function of Table 1. The slice is the cell's own, shared and read-only
// (Connect may rewrite it); it is clipped to its length, so an append
// copies.
func (c *Cell) Neighbors() []CellID { return c.neighbors[:len(c.neighbors):len(c.neighbors)] }

// IsNeighbor reports whether id is a neighbor of this cell.
func (c *Cell) IsNeighbor(id CellID) bool {
	_, ok := c.neighbors.Find(id)
	return ok
}

// IsOccupant reports whether the named portable is a regular occupant of
// this (office) cell.
func (c *Cell) IsOccupant(portable string) bool {
	for _, o := range c.Occupants {
		if o == portable {
			return true
		}
	}
	return false
}

// Universe is the complete set of cells in the environment (§3.4.1),
// partitioned into named zones.
type Universe struct {
	cells map[CellID]*Cell
	zones map[string][]CellID
}

// Errors returned by Universe operations.
var (
	errDuplicateCell = errors.New("topology: duplicate cell")
	errUnknownCell   = errors.New("topology: unknown cell")
	errSelfNeighbor  = errors.New("topology: cell cannot neighbor itself")
)

// newUniverse returns an empty universe.
func newUniverse() *Universe {
	return &Universe{
		cells: make(map[CellID]*Cell),
		zones: make(map[string][]CellID),
	}
}

// addCell registers a cell. Zone defaults to "default" when empty.
// The cell's base station defaults to "bs-<cell>" when unset.
func (u *Universe) addCell(c Cell) (*Cell, error) {
	if c.ID == "" {
		return nil, fmt.Errorf("topology: empty cell id")
	}
	if _, ok := u.cells[c.ID]; ok {
		return nil, fmt.Errorf("%w: %s", errDuplicateCell, c.ID)
	}
	if c.Zone == "" {
		c.Zone = "default"
	}
	if c.BaseStation == "" {
		c.BaseStation = NodeID("bs-" + string(c.ID))
	}
	cc := c
	cc.neighbors = nil
	u.cells[c.ID] = &cc
	u.zones[cc.Zone] = append(u.zones[cc.Zone], c.ID)
	return &cc, nil
}

// connect makes a and b neighbors (handoff is possible between them).
// Neighbor relations are symmetric.
func (u *Universe) connect(a, b CellID) error {
	if a == b {
		return fmt.Errorf("%w: %s", errSelfNeighbor, a)
	}
	ca, ok := u.cells[a]
	if !ok {
		return fmt.Errorf("%w: %s", errUnknownCell, a)
	}
	cb, ok := u.cells[b]
	if !ok {
		return fmt.Errorf("%w: %s", errUnknownCell, b)
	}
	ca.neighbors.Insert(b)
	cb.neighbors.Insert(a)
	return nil
}

// Cell returns the named cell, or nil if absent.
func (u *Universe) Cell(id CellID) *Cell { return u.cells[id] }

// Cells returns all cells sorted by ID.
func (u *Universe) Cells() []*Cell {
	out := make([]*Cell, 0, len(u.cells))
	for _, c := range u.cells {
		out = append(out, c)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Zone returns the cell IDs in the named zone, sorted.
func (u *Universe) Zone(name string) []CellID {
	ids := append([]CellID(nil), u.zones[name]...)
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// Zones returns all zone names, sorted.
func (u *Universe) Zones() []string { return sortx.Keys(u.zones) }

// Len returns the number of cells.
func (u *Universe) Len() int { return len(u.cells) }

// validate checks structural invariants: every neighbor reference resolves
// and the relation is symmetric.
func (u *Universe) validate() error {
	for id, c := range u.cells {
		for _, n := range c.neighbors {
			nc, ok := u.cells[n]
			if !ok {
				return fmt.Errorf("%w: %s referenced by %s", errUnknownCell, n, id)
			}
			if !nc.IsNeighbor(id) {
				return fmt.Errorf("topology: asymmetric neighbor relation %s -> %s", id, n)
			}
		}
	}
	return nil
}
