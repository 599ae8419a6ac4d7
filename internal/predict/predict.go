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
type Decision struct {
	Action action
	Target topology.CellID
	Level  Level
}

// Predictor answers next-cell queries against the universe topology and
// the zone profile servers.
type Predictor struct {
	Universe *topology.Universe
	// Servers maps zone name to its profile server.
	Servers map[string]*profile.Server

	opts profile.ServerOptions
}

// New creates a predictor and one profile server per zone of the universe.
func New(u *topology.Universe, opts profile.ServerOptions) *Predictor {
	p := &Predictor{Universe: u, Servers: make(map[string]*profile.Server), opts: opts}
	for _, zone := range u.Zones() {
		p.Servers[zone] = profile.NewServer(zone, u.Zone(zone), opts)
	}
	return p
}

// CrashZone models a zone profile server failing and warm-restarting with
// total state loss: every learned portable and cell profile of the zone
// is gone, so prediction degrades to the default level until histories
// rebuild. Unknown zones report an error.
func (p *Predictor) CrashZone(zone string) error {
	if _, ok := p.Servers[zone]; !ok {
		return fmt.Errorf("predict: unknown zone %q", zone)
	}
	p.Servers[zone] = profile.NewServer(zone, p.Universe.Zone(zone), p.opts)
	return nil
}

// ServerFor returns the profile server responsible for a cell, or nil.
func (p *Predictor) ServerFor(cell topology.CellID) *profile.Server {
	c := p.Universe.Cell(cell)
	if c == nil {
		return nil
	}
	return p.Servers[c.Zone]
}

// RecordHandoff routes a handoff report to the zone servers involved, and
// migrates the portable profile when the handoff crosses a zone boundary
// (the cache handover of §3.4.3).
func (p *Predictor) RecordHandoff(h profile.Handoff) {
	from := p.Universe.Cell(h.From)
	to := p.Universe.Cell(h.To)
	if from == nil || to == nil {
		return
	}
	sFrom := p.Servers[from.Zone]
	sTo := p.Servers[to.Zone]
	if sFrom == sTo {
		if sFrom != nil {
			sFrom.RecordHandoff(h)
		}
		return
	}
	if sFrom != nil {
		sFrom.RecordHandoff(h)
		if pp, err := sFrom.ExportPortable(h.Portable); err == nil {
			sTo.ImportPortable(pp)
		}
	}
	if sTo != nil {
		sTo.RecordHandoff(h)
	}
}

// NextCell runs the three-level prediction of §6/§6.4 for a mobile
// portable with the given previous and current cells.
func (p *Predictor) NextCell(portable string, prev, cur topology.CellID) Decision {
	cell := p.Universe.Cell(cur)
	if cell == nil {
		return Decision{Action: actionDefault}
	}
	srv := p.Servers[cell.Zone]

	// Level 1: the portable's own <prev, cur> → next triplet. Only a
	// prediction to a *neighbor* of the current cell is actionable.
	if srv != nil {
		if next, ok := srv.PredictByPortable(portable, prev, cur); ok && cell.IsNeighbor(next) {
			return Decision{Action: ActionReserve, Target: next, Level: LevelPortable}
		}
	}

	// Level 2: office-occupancy rules, then the cell's aggregate history.
	switch cell.Class {
	case topology.ClassOffice:
		// Rule 2: a regular occupant of the current office is expected
		// to stay; reserve nothing in the neighbors.
		if cell.IsOccupant(portable) {
			return Decision{Action: ActionNoReserve}
		}
		if next, ok := p.neighborOfficeOccupant(cell, portable); ok {
			return Decision{Action: ActionReserve, Target: next, Level: levelCell}
		}
	case topology.ClassCorridor:
		if next, ok := p.neighborOfficeOccupant(cell, portable); ok {
			return Decision{Action: ActionReserve, Target: next, Level: levelCell}
		}
	}
	if srv != nil {
		if next, ok := srv.PredictByCell(cur, prev); ok && cell.IsNeighbor(next) {
			return Decision{Action: ActionReserve, Target: next, Level: levelCell}
		}
	}

	// Level 3: nothing useful — hand over to the default algorithm.
	return Decision{Action: actionDefault}
}

// neighborOfficeOccupant finds a neighboring office cell of which the
// portable is a regular occupant (the office nomination rule of §6.1).
func (p *Predictor) neighborOfficeOccupant(cell *topology.Cell, portable string) (topology.CellID, bool) {
	for _, nid := range cell.Neighbors() {
		n := p.Universe.Cell(nid)
		if n != nil && n.Class == topology.ClassOffice && n.IsOccupant(portable) {
			return nid, true
		}
	}
	return "", false
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
