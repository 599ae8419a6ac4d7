package profile

import "armnet/internal/topology"

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
//
// Its handoff calls take cell and portable numbers from the Numbering it
// was built with (-1 for an unknown previous cell): the cell profiles
// sit at their cell's number, the portable profiles at their portable's.
type Server struct {
	Zone string
	opts ServerOptions

	names     *Numbering
	cells     []*CellProfile     // by cell number; nil outside the zone
	portables []*portableProfile // by portable number; nil when absent
}

// NewServer creates the profile server of the named zone of the
// universe x numbers.
func NewServer(zone string, x *Numbering, opts ServerOptions) *Server {
	s := &Server{
		Zone:  zone,
		opts:  opts.withDefaults(),
		names: x,
		cells: make([]*CellProfile, len(x.cells)),
	}
	for _, c := range x.cells {
		if c.Zone == zone {
			s.cells[c.Index] = newCellProfile(c.ID, x, s.opts.NpC, slotDuration)
		}
	}
	return s
}

// Cell returns the cell profile, or nil when the cell is outside the zone.
func (s *Server) Cell(c topology.CellID) *CellProfile { return s.cell(s.names.lookup(c)) }

// cell returns the profile of cell number i, or nil when it is outside
// the zone.
func (s *Server) cell(i int32) *CellProfile {
	if i < 0 || int(i) >= len(s.cells) {
		return nil
	}
	return s.cells[i]
}

// portable returns the profile of portable number n, creating it on first
// reference — a portable entering the zone starts with an empty (or
// handed-over) profile.
func (s *Server) portable(n int) *portableProfile {
	p := s.slot(n)
	if *p == nil {
		*p = newPortableProfile(s.names, s.opts.NpP)
	}
	return *p
}

// slot returns portable n's slot, growing the table to hold it.
func (s *Server) slot(n int) **portableProfile {
	if n >= len(s.portables) {
		s.portables = append(s.portables, make([]*portableProfile, n+1-len(s.portables))...)
	}
	return &s.portables[n]
}

// RecordHandoff is the update message a base station sends on every
// handoff: portable n moved from → to, having come from prev. The
// departure is folded into the from cell's profile (when in zone), the
// arrival into the to cell's, and the triplet into the portable's
// profile.
func (s *Server) RecordHandoff(n, prev, from, to int, t float64) {
	if from == to {
		return // not a handoff
	}
	if cp := s.cell(int32(from)); cp != nil {
		cp.recordDeparture(int32(prev), int32(to), t)
	}
	if cp := s.cell(int32(to)); cp != nil {
		cp.recordArrival(n, t)
	}
	s.portable(n).record(step{int32(prev), int32(from), int32(to)})
}

// PredictByPortable is the first-level prediction of §6: look up portable
// n's own <prev, cur> → next triplet, and failing that its departures
// from cur whatever the previous cell. It returns the next cell's number.
func (s *Server) PredictByPortable(n, prev, cur int) (int, bool) {
	if n >= len(s.portables) || s.portables[n] == nil {
		return -1, false
	}
	p := s.portables[n]
	if next, ok := p.predict(int32(prev), int32(cur)); ok {
		return int(next), true
	}
	next, ok := p.predictAnyPrev(int32(cur))
	return int(next), ok
}

// PredictByCell is the second-level aggregate prediction of §6: the
// cell's own handoff history conditioned on the previous cell. It returns
// the next cell's number.
func (s *Server) PredictByCell(cur, prev int) (int, bool) {
	cp := s.cell(int32(cur))
	if cp == nil {
		return -1, false
	}
	next, ok := cp.predict(int32(prev))
	return int(next), ok
}

// HandoffDistribution exposes the {j, p_j} table for reservation sizing.
func (s *Server) HandoffDistribution(cur, prev topology.CellID) map[topology.CellID]float64 {
	cp := s.Cell(cur)
	if cp == nil {
		return nil
	}
	return cp.Probabilities(prev)
}

// Handover moves portable n's profile to the next zone's server when the
// portable crosses a zone boundary (the base-station cache handover of
// §3.4.3), replacing any profile that server held for it. A portable
// this server holds no profile for is left alone.
func (s *Server) Handover(n int, to *Server) {
	if n >= len(s.portables) || s.portables[n] == nil {
		return
	}
	*to.slot(n), s.portables[n] = s.portables[n], nil
}
