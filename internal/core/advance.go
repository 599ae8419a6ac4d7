package core

import (
	"fmt"
	"slices"

	"armnet/internal/adapt"
	"armnet/internal/eventbus"
	"armnet/internal/predict"
	"armnet/internal/profile"
	"armnet/internal/qos"
	"armnet/internal/reserve"
	"armnet/internal/sortx"
	"armnet/internal/topology"
)

// perUserBW is the planning bandwidth for aggregate (per-head) advance
// reservations: the expectation of the paper's workload mix, 0.75·16 kb/s
// + 0.25·64 kb/s.
const perUserBW = 28e3

func profileHandoff(p *Portable, to topology.CellID, now float64) profile.Handoff {
	return profile.Handoff{
		Portable: p.ID,
		Prev:     p.Prev,
		From:     p.Cell,
		To:       to,
		Time:     now,
	}
}

// ---- Advance reservation bookkeeping ----
//
// Several sources write advance reservations into the same wireless link:
// per-portable predictions, lounge policies, meeting calendars. The book
// tracks each source's amount so one source's update never clobbers
// another's; the ledger sees the sum.

// advanceBook is one link's advance reservations per source tag, kept in
// ascending tag order: the total feeds admission and excess capacity, and
// a float sum taken in any other order drifts in the last ulp.
type advanceBook struct {
	sources sortx.IDs[string]
	amounts []float64
}

func (m *Manager) bookSet(link topology.LinkID, source string, amount float64) {
	if link == "" {
		return
	}
	bk := m.book[link]
	if bk == nil {
		if amount <= 0 {
			return
		}
		bk = &advanceBook{}
		m.book[link] = bk
	}
	if amount <= 0 {
		if i, ok := bk.sources.Remove(source); ok {
			bk.amounts = slices.Delete(bk.amounts, i, i+1)
		}
	} else if i, added := bk.sources.Insert(source); added {
		bk.amounts = slices.Insert(bk.amounts, i, amount)
	} else {
		bk.amounts[i] = amount
	}
	total := 0.0
	for _, a := range bk.amounts {
		total += a
	}
	_ = m.ledger.SetAdvance(link, total)
}

// clearAdvance removes every per-portable advance reservation of p,
// along with any outcome-pending prediction note (a withdrawn
// reservation is a withdrawn prediction; resolvePrediction must run
// first when a handoff is being scored).
func (m *Manager) clearAdvance(p *Portable) {
	for cell := range p.reservedCells {
		m.bookSet(m.downlink(cell), p.bookSource, 0)
		delete(p.reservedCells, cell)
	}
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
	for _, id := range p.conns {
		demand += m.conns[id].Req.Bandwidth.Min
	}
	if demand <= 0 {
		return
	}
	place := func(cell topology.CellID) {
		m.bookSet(m.downlink(cell), p.bookSource, demand)
		p.reservedCells[cell] = demand
		eventbus.Pub(m.Bus, eventbus.AdvanceReservation{
			Cell: string(cell), Portable: p.ID, Amount: demand,
		})
	}
	switch m.Cfg.Mode {
	case ModeBruteForce:
		for _, nid := range m.geo(p.Cell).neighbors {
			place(nid)
		}
	default: // ModePredictive
		d := m.Pred.NextCell(p.ID, p.Prev, p.Cell)
		if m.Obs != nil {
			m.notePrediction(p, d)
		}
		if d.Action == predict.ActionReserve {
			place(d.Target)
		}
		// The default action is handled in aggregate by evaluatePolicies.
	}
}

// ---- Meetings ----

// RegisterMeeting attaches a booking-calendar entry to a meeting room.
func (m *Manager) RegisterMeeting(room topology.CellID, mt reserve.Meeting) error {
	cell := m.Env.Universe.Cell(room)
	if cell == nil {
		return fmt.Errorf("%w: %s", errUnknownCell, room)
	}
	if cell.Class != topology.ClassMeetingRoom {
		return fmt.Errorf("core: cell %s is %s, not a meeting room", room, cell.Class)
	}
	pol, err := reserve.NewMeetingPolicy(mt)
	if err != nil {
		return err
	}
	m.meetings[room] = append(m.meetings[room], &meetingState{
		policy:  pol,
		arrived: make(map[string]bool),
		left:    make(map[string]bool),
	})
	return nil
}

func (m *Manager) noteMeetingArrival(portable string, cell topology.CellID) {
	for _, ms := range m.meetings[cell] {
		mt := ms.policy.Meeting
		now := m.Sim.Now()
		if now >= mt.Start-reserve.MeetingLeadIn && now < mt.End {
			ms.arrived[portable] = true
		}
	}
}

func (m *Manager) noteMeetingDeparture(portable string, cell topology.CellID) {
	for _, ms := range m.meetings[cell] {
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
			m.evaluateMeetings(cell, now)
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
			m.applyLoungePlan(cell, plan)
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
			m.applyLoungePlan(cell, plan)
		}
	}
}

func (m *Manager) evaluateMeetings(cell *topology.Cell, now float64) {
	tag := "meeting:" + string(cell.ID)
	roomTotal := 0.0
	neighborTotal := 0.0
	active := m.meetings[cell.ID][:0]
	for _, ms := range m.meetings[cell.ID] {
		roomTotal += float64(ms.policy.RoomSlots(now, len(ms.arrived))) * perUserBW
		neighborTotal += float64(ms.policy.NeighborSlots(now, len(ms.arrived), len(ms.left))) * perUserBW
		if ms.policy.Active(now) {
			active = append(active, ms)
		}
	}
	m.meetings[cell.ID] = active
	if total := roomTotal + neighborTotal; total > 0 {
		eventbus.Pub(m.Bus, eventbus.PolicyReservation{
			Cell: string(cell.ID), Source: tag, Amount: total,
		})
	}
	m.bookSet(m.downlink(cell.ID), tag, roomTotal)
	// Split the departure reservation over the neighbors by the cell's
	// handoff distribution.
	srv := m.Pred.ServerFor(cell.ID)
	var probs map[topology.CellID]float64
	if srv != nil {
		probs = srv.HandoffDistribution(cell.ID, "")
	}
	split := predict.SplitForecast(neighborTotal, probs, cell.Neighbors())
	for _, nid := range cell.Neighbors() {
		m.bookSet(m.downlink(nid), tag, split[nid])
	}
}

func (m *Manager) applyLoungePlan(cell *topology.Cell, plan reserve.LoungePlan) {
	tag := "policy:" + string(cell.ID)
	// The published amount is summed over the ID-ordered neighbor list,
	// never over the plan's map: a float sum in map order flips its last
	// ulp from run to run (DESIGN.md §9).
	nbrs := cell.Neighbors()
	total := plan.Self
	for _, nid := range nbrs {
		total += plan.Neighbor[nid]
	}
	if total > 0 {
		eventbus.Pub(m.Bus, eventbus.PolicyReservation{
			Cell: string(cell.ID), Source: tag, Amount: total,
		})
	}
	for _, nid := range nbrs {
		m.bookSet(m.downlink(nid), tag, plan.Neighbor[nid])
	}
	m.bookSet(m.downlink(cell.ID), tag+":self", plan.Self)
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
func (m *Manager) adjustPools(cells ...topology.CellID) {
	clear(m.staticMax)
	for p := range m.static {
		for _, id := range p.conns {
			if bw := m.conns[id].Bandwidth; bw > m.staticMax[p.Cell] {
				m.staticMax[p.Cell] = bw
			}
		}
	}
	for _, cell := range cells {
		g := m.geo(cell)
		if g == nil {
			continue
		}
		m.adjustPool(g)
		for _, nid := range g.neighbors {
			m.adjustPool(m.geo(nid))
		}
	}
}

// adjustPool sizes one cell's pool from the staticMax of its neighbors.
func (m *Manager) adjustPool(g *cellGeo) {
	maxAlloc := 0.0
	for _, nid := range g.neighbors {
		if bw := m.staticMax[nid]; bw > maxAlloc {
			maxAlloc = bw
		}
	}
	if ls := g.ls; ls != nil {
		ls.PoolFraction = adapt.PoolFraction(maxAlloc, ls.Capacity, m.Cfg.poolMin, m.Cfg.poolMax)
	}
}
