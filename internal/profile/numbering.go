package profile

import "armnet/internal/topology"

// Numbering gives cells and portables dense numbers, so the profile
// tables are slices and rows of small integers and a handoff hashes no
// ID. One numbering is shared by every server of a predictor, so a
// portable's profile means the same cells in whichever zone holds it.
//
// A universe's cells keep their topology.Cell.Index as their number. An
// ID the universe lacks (every cell of a standalone profile) is numbered
// after them the first time an ID-keyed call names it. A portable is
// numbered the first time it is seen and keeps its number for the
// numbering's life: a zone crash forgets the profile, not the number.
// The empty ID, an unknown previous cell, is -1 and is never numbered.
type Numbering struct {
	u     *topology.Universe
	cells []*topology.Cell // the universe's, by Index
	// extra holds the IDs numbered after the universe's cells, the first
	// at len(cells), and extraNum their numbers.
	extra    []topology.CellID
	extraNum map[topology.CellID]int32
	portIDs  []string // by number
	portNum  map[string]int32
}

// NewNumbering numbers the cells of u (nil for none) at their Index.
func NewNumbering(u *topology.Universe) *Numbering {
	x := &Numbering{u: u}
	if u != nil {
		cells := u.Cells()
		x.cells = make([]*topology.Cell, len(cells))
		for _, c := range cells {
			x.cells[c.Index] = c
		}
	}
	return x
}

// Portable returns the portable's number, numbering it on first sight:
// the one map lookup a portable costs, taken when it first appears.
func (x *Numbering) Portable(id string) int {
	if n, ok := x.portNum[id]; ok {
		return int(n)
	}
	if x.portNum == nil {
		x.portNum = make(map[string]int32)
	}
	n := int32(len(x.portIDs))
	x.portIDs = append(x.portIDs, id)
	x.portNum[id] = n
	return int(n)
}

// PortableID returns the ID of portable number n.
func (x *Numbering) PortableID(n int) string { return x.portIDs[n] }

// cellID returns the ID of cell number i, "" for -1.
func (x *Numbering) cellID(i int32) topology.CellID {
	switch {
	case i < 0:
		return ""
	case int(i) < len(x.cells):
		return x.cells[i].ID
	}
	return x.extra[int(i)-len(x.cells)]
}

// lookup returns the number of a cell ID without numbering it: -1 for
// "", unseen for an ID never numbered.
func (x *Numbering) lookup(id topology.CellID) int32 {
	if id == "" {
		return -1
	}
	if x.u != nil {
		if c := x.u.Cell(id); c != nil {
			return int32(c.Index)
		}
	}
	if i, ok := x.extraNum[id]; ok {
		return i
	}
	return unseen
}

// cell returns the number of a cell ID, numbering it on first sight.
func (x *Numbering) cell(id topology.CellID) int32 {
	if i := x.lookup(id); i != unseen {
		return i
	}
	if x.extraNum == nil {
		x.extraNum = make(map[topology.CellID]int32)
	}
	i := int32(len(x.cells) + len(x.extra))
	x.extra = append(x.extra, id)
	x.extraNum[id] = i
	return i
}
