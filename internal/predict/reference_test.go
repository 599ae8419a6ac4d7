package predict

import (
	"fmt"
	"math"
	"sort"

	"armnet/internal/profile"
	"armnet/internal/topology"
)

// The reference below is the profile layer as it was written before its
// tables went by number: every table keyed by ID in maps, a portable's
// profile found by ID in its zone server's map and moved between two
// maps on a zone crossing, and the predictor looking every cell up in
// the universe by ID. TestProfileServersMatchMapReference holds the
// numbered layer to it, answer for answer.

// refHandoff is one handoff report by IDs.
type refHandoff struct {
	Portable       string
	Prev, From, To topology.CellID
	Time           float64
}

type refTransKey struct{ prev, cur topology.CellID }

// refArgmax picks the highest-count cell, ties to the smallest ID.
func refArgmax(m map[topology.CellID]int) topology.CellID {
	var best topology.CellID
	bestN := -1
	for id, n := range m {
		if n > bestN || (n == bestN && id < best) {
			best, bestN = id, n
		}
	}
	return best
}

// refDec decrements m[k], deleting it at zero.
func refDec(m map[topology.CellID]int, k topology.CellID) {
	if m[k]--; m[k] <= 0 {
		delete(m, k)
	}
}

type refPortable struct {
	limit   int
	history []refHandoff
	counts  map[refTransKey]map[topology.CellID]int
}

func (p *refPortable) record(h refHandoff) {
	k := refTransKey{h.Prev, h.From}
	if p.counts[k] == nil {
		p.counts[k] = map[topology.CellID]int{}
	}
	p.counts[k][h.To]++
	p.history = append(p.history, h)
	if len(p.history) > p.limit {
		old := p.history[0]
		p.history = p.history[1:]
		ok := refTransKey{old.Prev, old.From}
		if m := p.counts[ok]; m != nil {
			refDec(m, old.To)
			if len(m) == 0 {
				delete(p.counts, ok)
			}
		}
	}
}

func (p *refPortable) predict(prev, cur topology.CellID) (topology.CellID, bool) {
	if m := p.counts[refTransKey{prev, cur}]; len(m) > 0 {
		return refArgmax(m), true
	}
	agg := map[topology.CellID]int{}
	for k, m := range p.counts {
		if k.cur == cur {
			for to, n := range m {
				agg[to] += n
			}
		}
	}
	if len(agg) == 0 {
		return "", false
	}
	return refArgmax(agg), true
}

type refCell struct {
	id         topology.CellID
	limit      int
	history    []refHandoff
	byPrev     map[topology.CellID]map[topology.CellID]int
	total      map[topology.CellID]int
	departures map[int64]int
	arrivals   map[int64]int
	visitors   map[string]int
}

func newRefCell(id topology.CellID, limit int) *refCell {
	return &refCell{
		id: id, limit: limit,
		byPrev:     map[topology.CellID]map[topology.CellID]int{},
		total:      map[topology.CellID]int{},
		departures: map[int64]int{},
		arrivals:   map[int64]int{},
		visitors:   map[string]int{},
	}
}

func (c *refCell) slot(t float64) int64 { return int64(math.Floor(t / 60)) }

func (c *refCell) recordDeparture(h refHandoff) {
	if c.byPrev[h.Prev] == nil {
		c.byPrev[h.Prev] = map[topology.CellID]int{}
	}
	c.byPrev[h.Prev][h.To]++
	c.total[h.To]++
	c.departures[c.slot(h.Time)]++
	c.history = append(c.history, h)
	if len(c.history) > c.limit {
		old := c.history[0]
		c.history = c.history[1:]
		if m := c.byPrev[old.Prev]; m != nil {
			refDec(m, old.To)
			if len(m) == 0 {
				delete(c.byPrev, old.Prev)
			}
		}
		refDec(c.total, old.To)
	}
}

func (c *refCell) recordArrival(h refHandoff) {
	c.arrivals[c.slot(h.Time)]++
	c.visitors[h.Portable]++
}

func (c *refCell) predict(prev topology.CellID) (topology.CellID, bool) {
	if m := c.byPrev[prev]; len(m) > 0 {
		return refArgmax(m), true
	}
	if len(c.total) > 0 {
		return refArgmax(c.total), true
	}
	return "", false
}

func (c *refCell) probabilities(prev topology.CellID) map[topology.CellID]float64 {
	src := c.byPrev[prev]
	if len(src) == 0 {
		src = c.total
	}
	n := 0
	for _, v := range src {
		n += v
	}
	out := map[topology.CellID]float64{}
	if n == 0 {
		return out
	}
	for id, v := range src {
		out[id] = float64(v) / float64(n)
	}
	return out
}

func (c *refCell) recent(slots map[int64]int, t float64, k int) []int {
	s := c.slot(t)
	out := make([]int, k)
	for i := 0; i < k; i++ {
		out[k-1-i] = slots[s-int64(i)]
	}
	return out
}

func (c *refCell) topVisitorShare(k int) float64 {
	if len(c.visitors) == 0 {
		return 0
	}
	var counts []int
	total := 0
	for _, v := range c.visitors {
		counts = append(counts, v)
		total += v
	}
	sort.Sort(sort.Reverse(sort.IntSlice(counts)))
	top := 0
	for i := 0; i < k && i < len(counts); i++ {
		top += counts[i]
	}
	return float64(top) / float64(total)
}

// string is CellProfile.String's diagnostic line (the class is the
// universe's: nothing in these streams learns one).
func (c *refCell) string(class topology.Class) string {
	return fmt.Sprintf("cell %s (%s): %d departures recorded, %d visitors, top-4 share %v",
		c.id, class, len(c.history), len(c.visitors), c.topVisitorShare(4))
}

// classify is profile.Classify over the maps, thresholds copied.
func (c *refCell) classify() topology.Class {
	arrivals := 0
	for _, v := range c.visitors {
		arrivals += v
	}
	if arrivals+len(c.history) < 30 {
		return topology.ClassUnknown
	}
	if n := len(c.visitors); n > 0 && n <= 8 && c.topVisitorShare(4) >= 0.8 {
		return topology.ClassOffice
	}
	total, dominant, back := 0, 0, 0
	for prev, m := range c.byPrev {
		if prev == "" {
			continue
		}
		best := 0
		for next, n := range m {
			total += n
			best = max(best, n)
			if next == prev {
				back += n
			}
		}
		dominant += best
	}
	if total > 0 && float64(dominant)/float64(total) >= 0.7 && float64(back)/float64(total) < 0.3 {
		return topology.ClassCorridor
	}
	slots := map[int64]float64{}
	for s, n := range c.departures {
		slots[s] += float64(n)
	}
	for s, n := range c.arrivals {
		slots[s] += float64(n)
	}
	if len(slots) > 0 {
		lo, hi := int64(math.MaxInt64), int64(math.MinInt64)
		for s := range slots {
			lo, hi = min(lo, s), max(hi, s)
		}
		if hi-lo+1 >= 3 {
			var xs []float64
			for s := lo; s <= hi; s++ {
				xs = append(xs, slots[s])
			}
			mean, peak := 0.0, 0.0
			for _, x := range xs {
				mean += x
				peak = max(peak, x)
			}
			mean /= float64(len(xs))
			if mean > 0 {
				varsum := 0.0
				for _, x := range xs {
					d := x - mean
					varsum += float64(d * d)
				}
				if peak/mean >= 4 {
					return topology.ClassMeetingRoom
				}
				if math.Sqrt(varsum/float64(len(xs)))/mean <= 0.8 {
					return topology.ClassCafeteria
				}
			}
		}
	}
	return topology.ClassLoungeDefault
}

type refServer struct {
	opts      profile.ServerOptions
	cells     map[topology.CellID]*refCell
	portables map[string]*refPortable
}

func newRefServer(cells []topology.CellID, opts profile.ServerOptions) *refServer {
	s := &refServer{opts: opts, cells: map[topology.CellID]*refCell{}, portables: map[string]*refPortable{}}
	for _, c := range cells {
		s.cells[c] = newRefCell(c, opts.NpC)
	}
	return s
}

func (s *refServer) recordHandoff(h refHandoff) {
	if h.From == h.To {
		return
	}
	if cp, ok := s.cells[h.From]; ok {
		cp.recordDeparture(h)
	}
	if cp, ok := s.cells[h.To]; ok {
		cp.recordArrival(h)
	}
	p := s.portables[h.Portable]
	if p == nil {
		p = &refPortable{limit: s.opts.NpP, counts: map[refTransKey]map[topology.CellID]int{}}
		s.portables[h.Portable] = p
	}
	p.record(h)
}

func (s *refServer) predictByPortable(portable string, prev, cur topology.CellID) (topology.CellID, bool) {
	p, ok := s.portables[portable]
	if !ok {
		return "", false
	}
	return p.predict(prev, cur)
}

func (s *refServer) predictByCell(cur, prev topology.CellID) (topology.CellID, bool) {
	cp, ok := s.cells[cur]
	if !ok {
		return "", false
	}
	return cp.predict(prev)
}

type refPredictor struct {
	u       *topology.Universe
	opts    profile.ServerOptions
	servers map[string]*refServer
}

// newRefPredictor takes opts with their defaults filled.
func newRefPredictor(u *topology.Universe, opts profile.ServerOptions) *refPredictor {
	p := &refPredictor{u: u, opts: opts, servers: map[string]*refServer{}}
	for _, zone := range u.Zones() {
		p.servers[zone] = newRefServer(u.Zone(zone), opts)
	}
	return p
}

func (p *refPredictor) crashZone(zone string) {
	p.servers[zone] = newRefServer(p.u.Zone(zone), p.opts)
}

func (p *refPredictor) serverFor(cell topology.CellID) *refServer {
	return p.servers[p.u.Cell(cell).Zone]
}

// recordHandoff reports a zone crossing to both servers, so the
// portable's profile records it twice (ROADMAP item 25).
func (p *refPredictor) recordHandoff(h refHandoff) {
	sFrom, sTo := p.serverFor(h.From), p.serverFor(h.To)
	sFrom.recordHandoff(h)
	if sFrom == sTo {
		return
	}
	if pp, ok := sFrom.portables[h.Portable]; ok {
		delete(sFrom.portables, h.Portable)
		sTo.portables[h.Portable] = pp
	}
	sTo.recordHandoff(h)
}

func (p *refPredictor) nextCell(portable string, prev, cur topology.CellID) (action, topology.CellID, Level) {
	cell := p.u.Cell(cur)
	srv := p.servers[cell.Zone]
	if next, ok := srv.predictByPortable(portable, prev, cur); ok && cell.IsNeighbor(next) {
		return ActionReserve, next, LevelPortable
	}
	office := func() (topology.CellID, bool) {
		for _, nid := range cell.Neighbors() {
			if n := p.u.Cell(nid); n.Class == topology.ClassOffice && n.IsOccupant(portable) {
				return nid, true
			}
		}
		return "", false
	}
	switch cell.Class {
	case topology.ClassOffice:
		if cell.IsOccupant(portable) {
			return ActionNoReserve, "", 0
		}
		if next, ok := office(); ok {
			return ActionReserve, next, levelCell
		}
	case topology.ClassCorridor:
		if next, ok := office(); ok {
			return ActionReserve, next, levelCell
		}
	}
	if next, ok := srv.predictByCell(cur, prev); ok && cell.IsNeighbor(next) {
		return ActionReserve, next, levelCell
	}
	return actionDefault, "", 0
}
