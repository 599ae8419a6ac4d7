package core

import (
	"fmt"

	"armnet/internal/adapt"
	"armnet/internal/eventbus"
	"armnet/internal/predict"
	"armnet/internal/qos"
	"armnet/internal/reserve"
	"armnet/internal/stats"
	"armnet/internal/topology"
)

// perUserBW is the planning bandwidth for aggregate (per-head) advance
// reservations: the expectation of the paper's workload mix, 0.75·16 kb/s
// + 0.25·64 kb/s.
const perUserBW = 28e3

// ---- Advance reservation bookkeeping ----
//
// Several sources write advance reservations into the same wireless link:
// per-portable predictions, lounge policies, meeting calendars. The book
// tracks each source's amount so one source's update never clobbers
// another's; the ledger sees the sum.

// advanceBook is one downlink's advance reservations, with their exact
// total (stats.Sum): the total feeds admission and excess capacity, and a
// correctly rounded sum does not depend on the order the sources came and
// went in. The tagged sources (lounge policies, meeting calendars) keep
// their amounts here; a portable keeps its own (Portable.advance).
type advanceBook struct {
	tags  map[string]float64
	total stats.Sum
}

// rebook moves one source's amount on the cell's downlink from old to
// amount and hands the ledger the new total. Only positive amounts are
// held, so a zero is an absent source.
func (g *cellGeo) rebook(old, amount float64) {
	if g.ls == nil {
		return
	}
	if g.book == nil {
		if amount <= 0 {
			return
		}
		g.book = &advanceBook{tags: make(map[string]float64)}
	}
	if old > 0 {
		g.book.total.Add(-old)
	}
	if amount > 0 {
		g.book.total.Add(amount)
	}
	_ = g.ls.SetAdvance(g.book.total.Value())
}

// bookTag sets a tagged source's amount on the cell's downlink.
func (g *cellGeo) bookTag(tag string, amount float64) {
	var old float64
	if g.book != nil {
		old = g.book.tags[tag]
	}
	g.rebook(old, amount)
	if g.book == nil {
		return
	}
	if amount > 0 {
		g.book.tags[tag] = amount
	} else {
		delete(g.book.tags, tag)
	}
}

// clearAdvance removes every per-portable advance reservation of p,
// along with any outcome-pending prediction note (a withdrawn
// reservation is a withdrawn prediction; resolvePrediction must run
// first when a handoff is being scored).
func (m *Manager) clearAdvance(p *Portable) {
	for _, g := range p.reserved {
		g.rebook(p.advance, 0)
	}
	clear(p.reserved)
	p.reserved = p.reserved[:0]
	if m.lastPred != nil {
		delete(m.lastPred, p.ID)
	}
}

// refreshAdvance recomputes the portable's advance reservation per the
// configured mode. Static portables never hold advance reservations
// (§3.4.2); mobile ones reserve the sum of their connections' b_min.
func (m *Manager) refreshAdvance(p *Portable) {
	m.clearAdvance(p)
	if p.Mobility != qos.Mobile || len(p.conns) == 0 || m.Cfg.Mode == ModeNone {
		return
	}
	demand := 0.0
	for _, c := range p.conns {
		demand += c.Req.Bandwidth.Min
	}
	if demand <= 0 {
		return
	}
	p.advance = demand
	place := func(g *cellGeo) {
		g.rebook(0, demand)
		p.reserved = append(p.reserved, g)
		eventbus.Pub(m.Bus, eventbus.AdvanceReservation{
			Cell: string(g.cell.ID), Portable: p.ID, Amount: demand,
		})
	}
	switch m.Cfg.Mode {
	case ModeBruteForce:
		for _, n := range p.at.neighbors {
			place(n)
		}
	default: // ModePredictive
		d := m.Pred.NextCell(p.num, p.prevCell, p.at.cell)
		if m.Obs != nil {
			m.notePrediction(p, d)
		}
		if d.Action == predict.ActionReserve {
			place(m.cells[d.Target.Index])
		}
		// The default action is handled in aggregate by evaluatePolicies.
	}
}

// ---- Meetings ----

// RegisterMeeting attaches a booking-calendar entry to a meeting room.
func (m *Manager) RegisterMeeting(room topology.CellID, mt reserve.Meeting) error {
	g := m.geo(room)
	if g == nil {
		return fmt.Errorf("%w: %s", errUnknownCell, room)
	}
	if g.cell.Class != topology.ClassMeetingRoom {
		return fmt.Errorf("core: cell %s is %s, not a meeting room", room, g.cell.Class)
	}
	pol, err := reserve.NewMeetingPolicy(mt)
	if err != nil {
		return err
	}
	g.meetings = append(g.meetings, &meetingState{
		policy:  pol,
		arrived: make(map[string]bool),
		left:    make(map[string]bool),
	})
	return nil
}

func (m *Manager) noteMeetingArrival(portable string, g *cellGeo) {
	for _, ms := range g.meetings {
		mt := ms.policy.Meeting
		now := m.Sim.Now()
		if now >= mt.Start-reserve.MeetingLeadIn && now < mt.End {
			ms.arrived[portable] = true
		}
	}
}

func (m *Manager) noteMeetingDeparture(portable string, g *cellGeo) {
	for _, ms := range g.meetings {
		if !ms.arrived[portable] {
			continue
		}
		now := m.Sim.Now()
		if now >= ms.policy.Meeting.End-reserve.MeetingLeadOut {
			ms.left[portable] = true
		}
	}
}

// ---- Periodic policy evaluation ----

// evaluatePolicies runs once per slot: meeting calendars, cafeteria
// least-squares forecasts, and default-lounge one-step/probabilistic
// reservations (§6.2–6.3). Predictive mode only.
func (m *Manager) evaluatePolicies() {
	if m.Cfg.Mode != ModePredictive {
		return
	}
	now := m.Sim.Now()
	// The lounge forecasters read slotted history; evaluation happens at
	// slot boundaries, so "the current slot" (n_t in §6.2) is the slot
	// that just completed, one slot behind the wall clock.
	ref := now - policySlot
	if ref < 0 {
		ref = 0
	}
	u := m.Env.Universe
	for _, cell := range u.Cells() {
		switch cell.Class {
		case topology.ClassMeetingRoom:
			m.evaluateMeetings(m.cells[cell.Index], now)
		case topology.ClassCafeteria:
			srv := m.Pred.ServerFor(cell.ID)
			if srv == nil {
				continue
			}
			cp := srv.Cell(cell.ID)
			if cp == nil {
				continue
			}
			plan := reserve.CafeteriaPlan(u, cp, ref, perUserBW)
			m.applyLoungePlan(m.cells[cell.Index], plan)
		case topology.ClassLoungeDefault:
			srv := m.Pred.ServerFor(cell.ID)
			if srv == nil {
				continue
			}
			cp := srv.Cell(cell.ID)
			if cp == nil {
				continue
			}
			plan, hasDefault := reserve.DefaultPlan(u, cp, ref, perUserBW)
			if hasDefault {
				plan.Self = m.probabilisticSelf(cell)
			}
			m.applyLoungePlan(m.cells[cell.Index], plan)
		}
	}
}

func (m *Manager) evaluateMeetings(g *cellGeo, now float64) {
	cell := g.cell
	tag := "meeting:" + string(cell.ID)
	roomTotal := 0.0
	neighborTotal := 0.0
	active := g.meetings[:0]
	for _, ms := range g.meetings {
		roomTotal += float64(float64(ms.policy.RoomSlots(now, len(ms.arrived))) * perUserBW)
		neighborTotal += float64(float64(ms.policy.NeighborSlots(now, len(ms.arrived), len(ms.left))) * perUserBW)
		if ms.policy.Active(now) {
			active = append(active, ms)
		}
	}
	g.meetings = active
	if total := roomTotal + neighborTotal; total > 0 {
		eventbus.Pub(m.Bus, eventbus.PolicyReservation{
			Cell: string(cell.ID), Source: tag, Amount: total,
		})
	}
	g.bookTag(tag, roomTotal)
	// Split the departure reservation over the neighbors by the cell's
	// handoff distribution.
	srv := m.Pred.ServerFor(cell.ID)
	var probs map[topology.CellID]float64
	if srv != nil {
		probs = srv.HandoffDistribution(cell.ID, "")
	}
	split := predict.SplitForecast(neighborTotal, probs, cell.Neighbors())
	for _, n := range g.neighbors {
		n.bookTag(tag, split[n.cell.ID])
	}
}

func (m *Manager) applyLoungePlan(g *cellGeo, plan reserve.LoungePlan) {
	cell := g.cell
	tag := "policy:" + string(cell.ID)
	// The published amount is summed over the ID-ordered neighbor list,
	// never over the plan's map: a float sum in map order flips its last
	// ulp from run to run (DESIGN.md §9).
	total := plan.Self
	for _, n := range g.neighbors {
		total += plan.Neighbor[n.cell.ID]
	}
	if total > 0 {
		eventbus.Pub(m.Bus, eventbus.PolicyReservation{
			Cell: string(cell.ID), Source: tag, Amount: total,
		})
	}
	for _, n := range g.neighbors {
		n.bookTag(tag, plan.Neighbor[n.cell.ID])
	}
	g.bookTag(tag+":self", plan.Self)
}

// probabilisticSelf applies §6.3 in aggregate for a default lounge with
// default neighbors: a single synthetic class at perUserBW granularity,
// occupancy = connections in the cell, neighbor occupancy = connections
// in the default neighbors.
func (m *Manager) probabilisticSelf(cell *topology.Cell) float64 {
	capUnits := int(cell.Capacity / perUserBW)
	if capUnits <= 0 {
		return 0
	}
	classes := []reserve.ClassState{{Bandwidth: 1, Mu: 1.0 / 600, Handoff: 0.5}}
	n := []int{m.connsInCell(cell.ID)}
	s := 0
	for _, nid := range cell.Neighbors() {
		if nc := m.Env.Universe.Cell(nid); nc != nil && nc.Class == topology.ClassLoungeDefault {
			s += m.connsInCell(nid)
		}
	}
	plan, err := reserve.ProbabilisticPlan(classes, n, []int{s}, capUnits, policySlot, 0.05)
	if err != nil && plan.MaxConns == nil {
		return 0
	}
	return float64(plan.Reserved) * perUserBW
}

func (m *Manager) connsInCell(cell topology.CellID) int {
	n := 0
	for _, p := range m.portables {
		if p.Cell == cell {
			n += len(p.conns)
		}
	}
	return n
}

// ---- Pool adjustment (§5.3) ----

// adjustPools recomputes the B_dyn fraction of the given cells and their
// neighbors: each cell's pool must absorb the largest allocation of any
// static portable's connection residing in its neighborhood. One walk of
// the static index serves every target; a max does not depend on the
// order it is taken in, so the walk is unordered.
func (m *Manager) adjustPools(cells ...*cellGeo) {
	clear(m.staticMax)
	for p := range m.static {
		at := p.at.cell.Index
		for _, c := range p.conns {
			if bw := c.Bandwidth; bw > m.staticMax[at] {
				m.staticMax[at] = bw
			}
		}
	}
	for _, g := range cells {
		m.adjustPool(g)
		for _, n := range g.neighbors {
			m.adjustPool(n)
		}
	}
}

// adjustPool sizes one cell's pool from the staticMax of its neighbors.
func (m *Manager) adjustPool(g *cellGeo) {
	maxAlloc := 0.0
	for _, n := range g.neighbors {
		if bw := m.staticMax[n.cell.Index]; bw > maxAlloc {
			maxAlloc = bw
		}
	}
	if ls := g.ls; ls != nil {
		ls.PoolFraction = adapt.PoolFraction(maxAlloc, ls.Capacity, m.Cfg.poolMin, m.Cfg.poolMax)
	}
}
