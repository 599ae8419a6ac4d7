// Package predict implements the paper's next-cell prediction (§6): the
// three-level lookup (portable profile → cell profile with office
// occupancy rules → default), and the per-class handoff-count predictors
// for lounges (§6.2): cafeteria least-squares extrapolation and default
// one-step memory.
package predict

import (
	"fmt"

	"armnet/internal/profile"
	"armnet/internal/topology"
)

// action describes what the advance-reservation machinery should do with
// a prediction.
type action int

const (
	// ActionReserve means advance-reserve in Target.
	ActionReserve action = iota
	// ActionNoReserve means the portable is expected to stay (regular
	// occupant of its current office): reserve nowhere.
	ActionNoReserve
	// actionDefault means no useful prediction; the caller applies the
	// default (probabilistic) reservation algorithm of §6.3.
	actionDefault
)

// String implements fmt.Stringer.
func (a action) String() string {
	switch a {
	case ActionReserve:
		return "reserve"
	case ActionNoReserve:
		return "no-reserve"
	case actionDefault:
		return "default"
	default:
		return fmt.Sprintf("Action(%d)", int(a))
	}
}

// Level identifies which prediction level produced a decision; the zero
// Level marks actionDefault/ActionNoReserve decisions.
type Level int

const (
	// LevelPortable is the first level: the portable's own profile.
	LevelPortable Level = 1
	// levelCell is the second level: office-occupancy rules and the
	// cell's aggregate history.
	levelCell Level = 2
)

// Decision is the outcome of next-cell prediction for one portable.
// Target is the cell to advance-reserve in, nil unless Action is
// ActionReserve.
type Decision struct {
	Action action
	Target *topology.Cell
	Level  Level
}

// Predictor answers next-cell queries against the universe topology and
// the zone profile servers.
//
// Its handoff calls take records, not IDs: a portable's number (Number)
// and the *topology.Cell of each cell, which must be the universe's own.
// A cell reaches its zone server, its neighbours and its profile by
// Cell.Index, so a handoff report or a prediction hashes no ID.
type Predictor struct {
	Universe *topology.Universe
	// Servers maps zone name to its profile server.
	Servers map[string]*profile.Server

	opts  profile.ServerOptions
	names *profile.Numbering
	// cells, zone and neighbors are by Cell.Index: the cell, its zone's
	// server and its neighbours in Neighbors() order.
	cells     []*topology.Cell
	zone      []*profile.Server
	neighbors [][]*topology.Cell
}

// New creates a predictor and one profile server per zone of the universe.
func New(u *topology.Universe, opts profile.ServerOptions) *Predictor {
	p := &Predictor{
		Universe:  u,
		Servers:   make(map[string]*profile.Server),
		opts:      opts,
		names:     profile.NewNumbering(u),
		cells:     make([]*topology.Cell, u.Len()),
		zone:      make([]*profile.Server, u.Len()),
		neighbors: make([][]*topology.Cell, u.Len()),
	}
	cells := u.Cells()
	n := 0
	for _, c := range cells {
		n += len(c.Neighbors())
	}
	all := make([]*topology.Cell, 0, n) // every cell's neighbours, back to back
	for _, c := range cells {
		p.cells[c.Index] = c
		start := len(all)
		for _, id := range c.Neighbors() {
			all = append(all, u.Cell(id))
		}
		p.neighbors[c.Index] = all[start:len(all):len(all)]
	}
	for _, zone := range u.Zones() {
		p.startServer(zone)
	}
	return p
}

// startServer gives the zone a fresh, empty profile server.
func (p *Predictor) startServer(zone string) {
	srv := profile.NewServer(zone, p.names, p.opts)
	p.Servers[zone] = srv
	for _, c := range p.cells {
		if c.Zone == zone {
			p.zone[c.Index] = srv
		}
	}
}

// Number returns the portable's number, the handle its handoff reports
// and predictions go by. The first call for an ID numbers it; a caller
// takes it once, when the portable appears, and keeps it. The number
// outlives a zone crash: it names the portable, never its profile.
func (p *Predictor) Number(portable string) int { return p.names.Portable(portable) }

// CrashZone models a zone profile server failing and warm-restarting with
// total state loss: every learned portable and cell profile of the zone
// is gone, so prediction degrades to the default level until histories
// rebuild. Unknown zones report an error.
func (p *Predictor) CrashZone(zone string) error {
	if _, ok := p.Servers[zone]; !ok {
		return fmt.Errorf("predict: unknown zone %q", zone)
	}
	p.startServer(zone)
	return nil
}

// ServerFor returns the profile server responsible for a cell, or nil.
func (p *Predictor) ServerFor(cell topology.CellID) *profile.Server {
	c := p.Universe.Cell(cell)
	if c == nil {
		return nil
	}
	return p.zone[c.Index]
}

// owns reports whether c is a cell of the predictor's universe.
func (p *Predictor) owns(c *topology.Cell) bool {
	return c != nil && c.Index < len(p.cells) && p.cells[c.Index] == c
}

// number returns a cell's number, -1 for an unknown previous cell (nil,
// or not of this universe).
func (p *Predictor) number(c *topology.Cell) int {
	if !p.owns(c) {
		return -1
	}
	return c.Index
}

// RecordHandoff routes portable n's handoff report (from → to at time t,
// having come from prev, nil when unknown) to the zone servers involved,
// and hands the portable profile over when the handoff crosses a zone
// boundary (the cache handover of §3.4.3).
func (p *Predictor) RecordHandoff(n int, prev, from, to *topology.Cell, t float64) {
	if !p.owns(from) || !p.owns(to) {
		return
	}
	pv := p.number(prev)
	sFrom, sTo := p.zone[from.Index], p.zone[to.Index]
	sFrom.RecordHandoff(n, pv, from.Index, to.Index, t)
	if sFrom == sTo {
		return
	}
	// A zone crossing is reported to both servers, and both reports reach
	// the portable's profile — the first here, the second after the
	// handover — so the triplet counts twice and fills two N_pP slots.
	// That is a defect (ROADMAP item 25); it is kept until a behaviour
	// change fixes it, because every campus decision depends on it.
	sFrom.Handover(n, sTo)
	sTo.RecordHandoff(n, pv, from.Index, to.Index, t)
}

// NextCell runs the three-level prediction of §6/§6.4 for mobile portable
// n with the given previous (nil when unknown) and current cells.
func (p *Predictor) NextCell(n int, prev, cur *topology.Cell) Decision {
	if !p.owns(cur) {
		return Decision{Action: actionDefault}
	}
	srv := p.zone[cur.Index]
	pv := p.number(prev)

	// Level 1: the portable's own <prev, cur> → next triplet. Only a
	// prediction to a *neighbor* of the current cell is actionable.
	if next, ok := srv.PredictByPortable(n, pv, cur.Index); ok {
		if c := p.neighbor(cur, next); c != nil {
			return Decision{Action: ActionReserve, Target: c, Level: LevelPortable}
		}
	}

	// Level 2: office-occupancy rules, then the cell's aggregate history.
	portable := p.names.PortableID(n)
	switch cur.Class {
	case topology.ClassOffice:
		// Rule 2: a regular occupant of the current office is expected
		// to stay; reserve nothing in the neighbors.
		if cur.IsOccupant(portable) {
			return Decision{Action: ActionNoReserve}
		}
		if c := p.neighborOfficeOccupant(cur, portable); c != nil {
			return Decision{Action: ActionReserve, Target: c, Level: levelCell}
		}
	case topology.ClassCorridor:
		if c := p.neighborOfficeOccupant(cur, portable); c != nil {
			return Decision{Action: ActionReserve, Target: c, Level: levelCell}
		}
	}
	if next, ok := srv.PredictByCell(cur.Index, pv); ok {
		if c := p.neighbor(cur, next); c != nil {
			return Decision{Action: ActionReserve, Target: c, Level: levelCell}
		}
	}

	// Level 3: nothing useful — hand over to the default algorithm.
	return Decision{Action: actionDefault}
}

// neighbor returns cell number next when it neighbours cur, else nil.
func (p *Predictor) neighbor(cur *topology.Cell, next int) *topology.Cell {
	for _, c := range p.neighbors[cur.Index] {
		if c.Index == next {
			return c
		}
	}
	return nil
}

// neighborOfficeOccupant finds a neighboring office cell of which the
// portable is a regular occupant (the office nomination rule of §6.1).
func (p *Predictor) neighborOfficeOccupant(cell *topology.Cell, portable string) *topology.Cell {
	for _, n := range p.neighbors[cell.Index] {
		if n.Class == topology.ClassOffice && n.IsOccupant(portable) {
			return n
		}
	}
	return nil
}

// CafeteriaForecast extrapolates the next slot's handoff count by the
// least-squares line through the last three slot counts (§6.2.2).
//
// Note on the paper's formula: with n = a·τ + m fit over τ ∈
// {t-2, t-1, t}, least squares gives a = (n_t - n_{t-2})/2 and
// m = (n_{t-2}+n_{t-1}+n_t)/3 - a·(t-1); the paper's printed expression
// for m carries a sign typo (it is not translation-invariant). The
// prediction it feeds is translation-invariant either way:
//
//	N(t+1) = a·(t+1) + m = (4·n_t + n_{t-1} - 2·n_{t-2}) / 3,
//
// which is what we compute. Negative extrapolations clamp to zero.
func CafeteriaForecast(n2, n1, n0 int) float64 {
	v := (float64(4*float64(n0)) + float64(n1) - float64(2*float64(n2))) / 3
	if v < 0 {
		return 0
	}
	return v
}

// OneStepForecast is the default lounge predictor (§6.2.3): the number of
// handoffs next slot equals the number this slot.
func OneStepForecast(n0 int) float64 { return float64(n0) }

// SplitForecast distributes a predicted handoff count over the neighbors
// according to the cell profile's {j, p_j} distribution; when the profile
// is empty the count is split uniformly over the given neighbors.
func SplitForecast(total float64, probs map[topology.CellID]float64, neighbors []topology.CellID) map[topology.CellID]float64 {
	out := make(map[topology.CellID]float64, len(neighbors))
	if total <= 0 {
		return out
	}
	sum := 0.0
	for _, nid := range neighbors {
		sum += probs[nid]
	}
	if sum <= 0 {
		if len(neighbors) == 0 {
			return out
		}
		each := total / float64(len(neighbors))
		for _, nid := range neighbors {
			out[nid] = each
		}
		return out
	}
	for _, nid := range neighbors {
		if p := probs[nid]; p > 0 {
			out[nid] = total * p / sum
		}
	}
	return out
}
