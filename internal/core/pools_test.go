package core

import (
	"fmt"
	"testing"

	"armnet/internal/adapt"
	"armnet/internal/des"
	"armnet/internal/qos"
	"armnet/internal/randx"
	"armnet/internal/sortx"
	"armnet/internal/topology"
)

// adjustPoolsPerCellScan is the reference adjustPools is checked against:
// §5.3 as it was first written, every target cell re-scanning each of its
// neighbors through an ID-sorted list of all portables.
func (m *Manager) adjustPoolsPerCellScan(cell topology.CellID) {
	u := m.Env.Universe
	c := u.Cell(cell)
	if c == nil {
		return
	}
	targets := append([]topology.CellID{cell}, c.Neighbors()...)
	for _, t := range targets {
		tc := u.Cell(t)
		if tc == nil {
			continue
		}
		maxAlloc := 0.0
		for _, nid := range tc.Neighbors() {
			for _, p := range m.portablesInCell(nid) {
				if p.Mobility != qos.Static {
					continue
				}
				for _, c := range p.conns {
					if bw := c.Bandwidth; bw > maxAlloc {
						maxAlloc = bw
					}
				}
			}
		}
		if ls := m.ledger.Link(m.downlink(t)); ls != nil {
			ls.PoolFraction = adapt.PoolFraction(maxAlloc, ls.Capacity, m.Cfg.poolMin, m.Cfg.poolMax)
		}
	}
}

func (m *Manager) portablesInCell(cell topology.CellID) []*Portable {
	var out []*Portable
	for _, id := range sortx.Keys(m.portables) {
		if p := m.portables[id]; p.Cell == cell {
			out = append(out, p)
		}
	}
	return out
}

// TestAdjustPoolsMatchesPerCellScan scatters portables holding
// connections of random bandwidth over the campus and a grid, classifies
// them through setMobility, and between trials flips some static →
// mobile → static through becomeMobile / becomeStatic, removes some with
// RemovePortable and places new ones. The walk of the static index must
// leave the same PoolFraction on every downlink as the per-cell scan of
// every portable, for single cells and for the (to, from) pair a handoff
// adjusts.
func TestAdjustPoolsMatchesPerCellScan(t *testing.T) {
	campus, err := topology.BuildCampus()
	if err != nil {
		t.Fatal(err)
	}
	grid, err := topology.BuildGrid(4, 5, 1.6e6)
	if err != nil {
		t.Fatal(err)
	}
	for name, env := range map[string]*topology.Environment{"campus": campus, "grid": grid} {
		cells := env.Universe.Cells()
		for seed := int64(1); seed <= 25; seed++ {
			rng := randx.New(seed)
			m, err := NewManager(des.New(), env, Config{})
			if err != nil {
				t.Fatal(err)
			}
			placed := 0
			place := func() {
				id := fmt.Sprintf("p%d", placed)
				placed++
				if err := m.PlacePortable(id, cells[rng.Intn(len(cells))].ID); err != nil {
					t.Fatal(err)
				}
				p := m.Portable(id)
				if rng.Bernoulli(0.5) {
					m.setMobility(p, qos.Static)
				}
				for j, k := 0, rng.Intn(4); j < k; j++ {
					cid := fmt.Sprintf("%s-c%d", id, j)
					// Up to 30% of a cell: both clamps of [poolMin, poolMax] and
					// the range between are reached.
					c := &Connection{ID: cid, Portable: id, Bandwidth: rng.Float64() * 480e3}
					p.addConn(c)
					m.conns[cid] = c
				}
			}
			for i, n := 0, 1+rng.Intn(60); i < n; i++ {
				place()
			}
			churn := func() {
				ids := sortx.Keys(m.portables)
				for k := rng.Intn(4); k > 0 && len(ids) > 0; k-- {
					p := m.portables[ids[rng.Intn(len(ids))]]
					if p == nil {
						continue
					}
					switch {
					case rng.Bernoulli(0.2):
						m.RemovePortable(p.ID)
					case p.Mobility == qos.Static:
						m.becomeMobile(p)
					default:
						m.becomeStatic(p)
					}
				}
				if rng.Bernoulli(0.3) {
					place()
				}
			}
			fractions := func(adjust func()) map[topology.LinkID]float64 {
				out := map[topology.LinkID]float64{}
				for _, ls := range m.ledger.Links() {
					ls.PoolFraction = -1 // untouched links must stay untouched on both sides
				}
				adjust()
				for _, ls := range m.ledger.Links() {
					out[ls.Link.ID] = ls.PoolFraction
				}
				return out
			}
			for trial := 0; trial < 12; trial++ {
				churn()
				to := cells[rng.Intn(len(cells))]
				from := to.ID
				if nb := to.Neighbors(); len(nb) > 0 && trial%2 == 0 {
					from = nb[rng.Intn(len(nb))]
				}
				want := fractions(func() {
					m.adjustPoolsPerCellScan(to.ID)
					m.adjustPoolsPerCellScan(from)
				})
				got := fractions(func() { m.adjustPools(m.geo(to.ID), m.geo(from)) })
				for id, w := range want {
					if got[id] != w {
						t.Fatalf("%s seed %d: adjustPools(%s, %s) left PoolFraction %v on %s, per-cell scan %v",
							name, seed, to.ID, from, got[id], id, w)
					}
				}
			}
		}
	}
}
