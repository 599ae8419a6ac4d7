package profile

import (
	"fmt"

	"armnet/internal/sortx"
	"armnet/internal/topology"
)

// ServerOptions configures a zone profile server.
type ServerOptions struct {
	// NpP is the portable-profile history limit (default 100).
	NpP int
	// NpC is the cell-profile history limit (default 500).
	NpC int
}

// slotDuration is the activity slot width of a server's cell profiles,
// in seconds.
const slotDuration = 60

func (o ServerOptions) withDefaults() ServerOptions {
	if o.NpP <= 0 {
		o.NpP = 100
	}
	if o.NpC <= 0 {
		o.NpC = 500
	}
	return o
}

// Server is a zone profile server (§3.4.3): it owns the cell profiles of
// every cell in its zone and the portable profiles of every portable
// currently in the zone, updating both on every handoff report from the
// base stations.
type Server struct {
	Zone string
	opts ServerOptions

	cells     map[topology.CellID]*CellProfile
	portables map[string]*portableProfile
}

// NewServer creates a profile server for the given zone cells.
func NewServer(zone string, cells []topology.CellID, opts ServerOptions) *Server {
	s := &Server{
		Zone:      zone,
		opts:      opts.withDefaults(),
		cells:     make(map[topology.CellID]*CellProfile),
		portables: make(map[string]*portableProfile),
	}
	for _, c := range cells {
		s.cells[c] = NewCellProfile(c, s.opts.NpC, slotDuration)
	}
	return s
}

// Cell returns the cell profile, or nil when the cell is outside the zone.
func (s *Server) Cell(c topology.CellID) *CellProfile { return s.cells[c] }

// portable returns the portable profile, creating it on first reference —
// a portable entering the zone starts with an empty (or imported) profile.
func (s *Server) portable(id string) *portableProfile {
	p, ok := s.portables[id]
	if !ok {
		p = NewPortableProfile(id, s.opts.NpP)
		s.portables[id] = p
	}
	return p
}

// Portables returns the IDs of portables with profiles, sorted.
func (s *Server) Portables() []string { return sortx.Keys(s.portables) }

// RecordHandoff is the update message a base station sends on every
// handoff. The departure is folded into the From cell's profile (when in
// zone), the arrival into the To cell's, and the triplet into the
// portable's profile.
func (s *Server) RecordHandoff(h Handoff) {
	if h.From == h.To {
		return // not a handoff
	}
	if cp, ok := s.cells[h.From]; ok {
		cp.RecordDeparture(h)
	}
	if cp, ok := s.cells[h.To]; ok {
		cp.recordArrival(h)
	}
	s.portable(h.Portable).Record(h)
}

// PredictByPortable is the first-level prediction of §6: look up the
// portable's own <prev, cur> → next triplet.
func (s *Server) PredictByPortable(portable string, prev, cur topology.CellID) (topology.CellID, bool) {
	p, ok := s.portables[portable]
	if !ok {
		return "", false
	}
	if next, ok := p.Predict(prev, cur); ok {
		return next, true
	}
	return p.predictAnyPrev(cur)
}

// PredictByCell is the second-level aggregate prediction of §6: the
// cell's own handoff history conditioned on the previous cell.
func (s *Server) PredictByCell(cur, prev topology.CellID) (topology.CellID, bool) {
	cp, ok := s.cells[cur]
	if !ok {
		return "", false
	}
	return cp.Predict(prev)
}

// HandoffDistribution exposes the {j, p_j} table for reservation sizing.
func (s *Server) HandoffDistribution(cur, prev topology.CellID) map[topology.CellID]float64 {
	cp, ok := s.cells[cur]
	if !ok {
		return nil
	}
	return cp.Probabilities(prev)
}

// ExportPortable removes and returns a portable's profile, for transfer
// to the next zone's server when the portable crosses a zone boundary
// (the base-station cache handover of §3.4.3).
func (s *Server) ExportPortable(id string) (*portableProfile, error) {
	p, ok := s.portables[id]
	if !ok {
		return nil, fmt.Errorf("profile: portable %s unknown in zone %s", id, s.Zone)
	}
	delete(s.portables, id)
	return p, nil
}

// ImportPortable installs a profile exported from another zone.
func (s *Server) ImportPortable(p *portableProfile) {
	if p != nil {
		s.portables[p.ID] = p
	}
}
