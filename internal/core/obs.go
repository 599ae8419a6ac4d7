package core

import (
	"armnet/internal/obs"
	"armnet/internal/predict"
	"armnet/internal/topology"
)

// predNote is the outcome-pending movement prediction of one portable:
// what the §6 machinery last predicted, remembered until the next
// handoff resolves it. Tracked only when observability is armed.
type predNote struct {
	level     string // "portable", "cell", "default"
	class     string // zone class of the cell the prediction was made in
	target    string // predicted next cell (ActionReserve only)
	hasTarget bool
}

// armObs attaches the observability layer: one catch-all bus subscriber
// plus read-only taps into the ledger and the maxmin protocol. The
// observer never publishes, schedules, or draws randomness, so traces
// are byte-identical with it on or off.
func (m *Manager) armObs(opts obs.Options) {
	m.lastPred = make(map[string]predNote)
	src := obs.Sources{
		CellUtilization: m.cellUtilization,
		OverloadArmed:   m.Cfg.Overload != nil,
	}
	src.Bottlenecks = m.Adpt.Alloc.BottleneckSizes
	m.Obs = obs.New(m.Bus, src, opts)
}

// cellUtilization reports every cell's committed downlink utilization —
// (guaranteed minima + advance reservations) / capacity, the same
// pressure ratio the overload controller escalates on. Universe.Cells
// is sorted by ID, so the slice order is deterministic.
func (m *Manager) cellUtilization() []obs.CellUtil {
	cells := m.Env.Universe.Cells()
	out := make([]obs.CellUtil, 0, len(cells))
	for _, c := range cells {
		ls := m.cells[c.Index].ls
		if ls == nil || ls.Capacity <= 0 {
			continue
		}
		out = append(out, obs.CellUtil{
			Cell: string(c.ID),
			Util: (ls.SumMin() + ls.AdvanceReserved) / ls.Capacity,
		})
	}
	return out
}

// notePrediction records the decision refreshAdvance just made so the
// next handoff can be scored against it.
func (m *Manager) notePrediction(p *Portable, d predict.Decision) {
	note := predNote{class: p.at.cell.Class.String()}
	switch d.Action {
	case predict.ActionReserve:
		note.target = string(d.Target.ID)
		note.hasTarget = true
		if d.Level == predict.LevelPortable {
			note.level = "portable"
		} else {
			note.level = "cell"
		}
	case predict.ActionNoReserve:
		// Level-2 "stays in office" rule: a prediction that the portable
		// does not move, so any handoff resolves it as a miss.
		note.level = "cell"
	default:
		note.level = "default"
	}
	m.lastPred[p.ID] = note
}

// resolvePrediction scores the pending prediction against the actual
// handoff destination. Must run before clearAdvance discards the note.
func (m *Manager) resolvePrediction(p *Portable, to topology.CellID) {
	if m.Obs == nil {
		return
	}
	note, ok := m.lastPred[p.ID]
	if !ok {
		return
	}
	delete(m.lastPred, p.ID)
	m.Obs.RecordPrediction(note.level, note.class, note.hasTarget && note.target == string(to))
}
