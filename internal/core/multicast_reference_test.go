package core

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"

	"armnet/internal/admission"
	"armnet/internal/des"
	"armnet/internal/eventbus"
	"armnet/internal/qos"
	"armnet/internal/randx"
	"armnet/internal/sortx"
	"armnet/internal/topology"
)

// refMulticast is the multicast set-up and release the plans replaced,
// kept as the test-only reference: a fresh Backbone.Multicast on every
// call, legs admitted in sortx.Keys(tree.Branches) order with each leg
// ID concatenated per call, and release over the branch map. mapOrder is
// the mutation switch — legs admitted in branch-map order — which the
// lockstep test must notice. Each connection's rows are released by name
// over the route they were booked on (Ledger.Release), where the plans
// release them through the connection's holders (Holder.Release), so the
// lockstep test also holds the holder form to the route form.
type refMulticast struct {
	m        *Manager
	mapOrder bool
	trees    map[*Connection]*topology.MulticastTree
}

func (r refMulticast) releaseRoute(c *Connection) { r.m.ledger.Release(c.ID, c.Route) }

func (r refMulticast) setupMulticast(c *Connection, g *cellGeo) {
	m := r.m
	u := m.Env.Universe
	cc := u.Cell(g.cell.ID)
	var dsts []topology.NodeID
	for _, nid := range cc.Neighbors() {
		dsts = append(dsts, u.Cell(nid).BaseStation)
	}
	tree, err := m.Env.Backbone.Multicast(c.Host, dsts)
	if err != nil {
		return
	}
	r.trees[c] = &tree
	order := sortx.Keys(tree.Branches)
	if r.mapOrder {
		order = order[:0]
		for dst := range tree.Branches {
			order = append(order, dst)
		}
	}
	for _, dst := range order {
		route := tree.Branches[dst]
		if len(route.Links) == 0 {
			continue
		}
		_, _ = m.Adm.Admit(admission.Test{
			ConnID:   c.ID + "@mc:" + string(dst),
			Req:      c.Req,
			Route:    route,
			Kind:     admission.KindNew,
			Mobility: qos.Mobile,
		})
	}
}

func (r refMulticast) releaseMulticast(c *Connection) {
	tree := r.trees[c]
	if tree == nil {
		return
	}
	for dst, route := range tree.Branches {
		r.m.ledger.Release(c.ID+"@mc:"+string(dst), route)
	}
	delete(r.trees, c)
}

// TestMulticastPlanMatchesFreshTree holds every plan of the campus and a
// 4×5 grid, for every host and cell, to a tree built fresh the old way:
// the plan's legs are the fresh tree's non-empty branches in ascending
// destination order, over the same *Link pointers, and asking again
// returns the same plan.
func TestMulticastPlanMatchesFreshTree(t *testing.T) {
	campus, err := topology.BuildCampus()
	if err != nil {
		t.Fatal(err)
	}
	grid, err := topology.BuildGrid(4, 5, 1.6e6)
	if err != nil {
		t.Fatal(err)
	}
	for name, env := range map[string]*topology.Environment{"campus": campus, "grid": grid} {
		m, err := NewManager(des.New(), env, Config{})
		if err != nil {
			t.Fatal(err)
		}
		for at, host := range env.Hosts {
			for _, cell := range env.Universe.Cells() {
				var dsts []topology.NodeID
				for _, nid := range cell.Neighbors() {
					dsts = append(dsts, env.Universe.Cell(nid).BaseStation)
				}
				fresh, err := env.Backbone.Multicast(host, dsts)
				if err != nil {
					t.Fatal(err)
				}
				pl := m.plan(int32(at), m.geo(cell.ID))
				if pl.tree == nil || pl.tree.Source != host || !slices.Equal(pl.tree.Links, fresh.Links) {
					t.Fatalf("%s %s→%s: plan tree %+v, fresh %+v", name, host, cell.ID, pl.tree, fresh)
				}
				var want []mcastLeg
				for _, dst := range sortx.Keys(fresh.Branches) {
					if r := fresh.Branches[dst]; len(r.Links) > 0 {
						want = append(want, mcastLeg{dst: dst, route: r, suffix: "@mc:" + string(dst)})
					}
				}
				if len(want) == 0 {
					t.Fatalf("%s %s→%s: a tree with no legs checks nothing", name, host, cell.ID)
				}
				eq := func(a, b mcastLeg) bool {
					return a.dst == b.dst && a.suffix == b.suffix && slices.Equal(a.route.Links, b.route.Links)
				}
				lo, hi := int32(math.MaxInt32), int32(math.MinInt32)
				for _, leg := range pl.legs {
					if k, ok := m.legKeys[leg.dst]; !ok || k != leg.key {
						t.Fatalf("%s %s→%s: leg to %s keyed %d, the manager numbers it %d", name, host, cell.ID, leg.dst, leg.key, k)
					}
					lo, hi = min(lo, leg.key), max(hi, leg.key+1)
				}
				if pl.lo != lo || pl.hi != hi {
					t.Fatalf("%s %s→%s: plan spans keys [%d, %d), its legs [%d, %d)", name, host, cell.ID, pl.lo, pl.hi, lo, hi)
				}
				if !slices.EqualFunc(pl.legs, want, eq) {
					t.Fatalf("%s %s→%s: plan legs %v, fresh sorted branches %v", name, host, cell.ID, pl.legs, want)
				}
				if again := m.plan(int32(at), m.geo(cell.ID)); again != pl {
					t.Fatalf("%s %s→%s: plan rebuilt on the second call", name, host, cell.ID)
				}
			}
		}
		if len(m.legKeys) != len(env.Universe.Cells()) {
			t.Fatalf("%s: %d leg keys for %d base stations", name, len(m.legKeys), len(env.Universe.Cells()))
		}
	}
}

// TestCellRecordsMatchUniverse checks each cell record against what the
// universe and the backbone answer fresh: the record at a cell's Index is
// that cell's, and its neighbours are the records of the cell's
// neighbours, in order.
func TestCellRecordsMatchUniverse(t *testing.T) {
	_, m := newCampus(t, Config{})
	cells := m.Env.Universe.Cells()
	if len(m.cells) != len(cells) {
		t.Fatalf("%d records for %d cells", len(m.cells), len(cells))
	}
	for _, c := range cells {
		g := m.geo(c.ID)
		air := topology.AirNode(c.ID)
		l := m.Env.Backbone.Link(c.BaseStation, air)
		if g != m.cells[c.Index] || g.cell != c || g.air != air || g.downlink != l.ID || g.ls != m.ledger.Link(l.ID) {
			t.Fatalf("record of %s (index %d) = %+v", c.ID, c.Index, g)
		}
		ids := make([]topology.CellID, len(g.neighbors))
		for i, n := range g.neighbors {
			if n != m.geo(n.cell.ID) {
				t.Fatalf("%s's neighbour %s is not its cell's record", c.ID, n.cell.ID)
			}
			ids[i] = n.cell.ID
		}
		if !slices.Equal(ids, c.Neighbors()) {
			t.Fatalf("%s's neighbour records %v, the universe's %v", c.ID, ids, c.Neighbors())
		}
	}
	if m.geo("nowhere") != nil || m.downlink("nowhere") != "" {
		t.Fatal("an unknown cell has a record")
	}
}

// multicastDivergence drives a manager on the plans and one on the
// reference (its mutant when mapOrder is set) through one seeded script
// of placements, opens, handoffs, closes and time steps on a loaded
// campus, and returns the first step after which they differ: an
// operation's error, any link's connections or allocation rows, pool
// fraction or advance reservation, or the published record sequence.
// refused counts multicast legs the plan side saw refused.
func multicastDivergence(t *testing.T, seed int64, steps int, mapOrder bool) (msg string, refused int) {
	t.Helper()
	build := func(ref bool) (*des.Simulator, *Manager, *[]eventbus.Record) {
		env, err := topology.BuildCampus()
		if err != nil {
			t.Fatal(err)
		}
		sim := des.New()
		m, err := NewManager(sim, env, Config{Seed: seed, Tth: 40})
		if err != nil {
			t.Fatal(err)
		}
		if ref {
			m.rsv = refMulticast{m: m, mapOrder: mapOrder, trees: map[*Connection]*topology.MulticastTree{}}
		}
		log := &[]eventbus.Record{}
		m.Bus.Subscribe(func(r eventbus.Record) { *log = append(*log, r) })
		return sim, m, log
	}
	simA, a, logA := build(false)
	simB, b, logB := build(true)
	cells := a.Env.Universe.Cells()
	rng := randx.New(seed)
	errText := func(err error) string {
		if err == nil {
			return ""
		}
		return err.Error()
	}
	now := 0.0
	for step := 0; step < steps; step++ {
		var ea, eb error
		portables := sortx.Keys(a.portables)
		switch op := rng.Intn(20); {
		case op < 3 || len(portables) == 0:
			id := fmt.Sprintf("p%d", step)
			cell := cells[rng.Intn(len(cells))].ID
			ea, eb = a.PlacePortable(id, cell), b.PlacePortable(id, cell)
		case op < 9:
			p := portables[rng.Intn(len(portables))]
			bmin := []float64{64e3, 128e3, 256e3, 384e3}[rng.Intn(4)]
			_, ea = a.OpenConnection(p, req(bmin, 4*bmin))
			_, eb = b.OpenConnection(p, req(bmin, 4*bmin))
		case op < 15:
			p := a.portables[portables[rng.Intn(len(portables))]]
			nbrs := a.Env.Universe.Cell(p.Cell).Neighbors()
			to := nbrs[rng.Intn(len(nbrs))]
			ea, eb = a.HandoffPortable(p.ID, to), b.HandoffPortable(p.ID, to)
		case op < 18:
			if ids := a.ConnIDs(); len(ids) > 0 {
				id := ids[rng.Intn(len(ids))]
				ea, eb = a.CloseConnection(id), b.CloseConnection(id)
			}
		default:
			now += 30 * rng.Float64()
		}
		now += rng.Float64()
		if err := simA.RunUntil(now); err != nil {
			t.Fatal(err)
		}
		if err := simB.RunUntil(now); err != nil {
			t.Fatal(err)
		}
		for _, r := range *logA {
			if ev, ok := r.Event.(eventbus.AdmissionDecision); ok && strings.Contains(ev.Conn, "@mc:") && !ev.Admitted {
				refused++
			}
		}
		if errText(ea) != errText(eb) {
			return fmt.Sprintf("step %d: error %q, reference %q", step, errText(ea), errText(eb)), refused
		}
		if d := ledgerDiff(a.ledger, b.ledger); d != "" {
			return fmt.Sprintf("step %d: %s", step, d), refused
		}
		for _, id := range portables {
			if p := a.portables[id]; p != nil && p.at != a.geo(p.Cell) {
				return fmt.Sprintf("step %d: %s in %s holds the record of %s", step, id, p.Cell, p.at.cell.ID), refused
			}
		}
		for i := range max(len(*logA), len(*logB)) {
			if i >= len(*logA) || i >= len(*logB) || (*logA)[i] != (*logB)[i] {
				return fmt.Sprintf("step %d: record %d of %d differs from the reference's %d", step, i, len(*logA), len(*logB)), refused
			}
		}
		*logA, *logB = (*logA)[:0], (*logB)[:0]
	}
	return "", refused
}

// ledgerDiff compares two ledgers over the same backbone row by row.
func ledgerDiff(a, b *admission.Ledger) string {
	for _, la := range a.Links() {
		lb := b.Link(la.Link.ID)
		ids := la.Conns()
		if !slices.Equal(ids, lb.Conns()) {
			return fmt.Sprintf("%s holds %v, reference %v", la.Link.ID, ids, lb.Conns())
		}
		for _, id := range ids {
			x, _ := la.Alloc(id)
			y, _ := lb.Alloc(id)
			if x != y {
				return fmt.Sprintf("%s row %s = %+v, reference %+v", la.Link.ID, id, x, y)
			}
		}
		if la.PoolFraction != lb.PoolFraction || la.AdvanceReserved != lb.AdvanceReserved {
			return fmt.Sprintf("%s pool %v / advance %v, reference %v / %v",
				la.Link.ID, la.PoolFraction, la.AdvanceReserved, lb.PoolFraction, lb.AdvanceReserved)
		}
	}
	return ""
}

// TestHandoffMatchesReferenceMulticast holds the plans to the per-call
// trees over 30 seeds of scripts loaded enough that multicast legs are
// refused, so the order legs are admitted in decides which. The mutant
// admitting legs in branch-map order must diverge somewhere, which is
// what shows the scripts can see that order at all.
func TestHandoffMatchesReferenceMulticast(t *testing.T) {
	refused, caught := 0, 0
	for seed := int64(1); seed <= 30; seed++ {
		msg, n := multicastDivergence(t, seed, 200, false)
		if msg != "" {
			t.Fatalf("seed %d: %s", seed, msg)
		}
		refused += n
		if msg, _ := multicastDivergence(t, seed, 200, true); msg != "" {
			caught++
		}
	}
	if refused == 0 {
		t.Fatal("no multicast leg was refused: the scripts never load the wired links")
	}
	if caught == 0 {
		t.Fatal("the branch-map-order mutant matched the reference on every seed")
	}
	t.Logf("%d multicast legs refused; the map-order mutant diverged on %d of 30 seeds", refused, caught)
}
