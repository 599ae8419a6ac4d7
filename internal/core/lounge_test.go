package core

import (
	"fmt"
	"strings"
	"testing"

	"armnet/internal/des"
	"armnet/internal/reserve"
	"armnet/internal/topology"
)

// TestProbabilisticLoungeSelfReservation is §6.3 in the integrated
// manager: a default lounge next to another default lounge books, as its
// own "policy:<cell>:self" source, the eq. (7) remainder ProbabilisticPlan
// leaves for the occupancies the manager holds — the lounge's own
// connections and those of its default-lounge neighbours. No built-in
// topology puts two default lounges side by side, so the cells come from
// a spec. In the feasible case the plan raises the cap past the lounge's
// occupancy; in the infeasible one the occupancy already misses the
// P_QOS target and the plan keeps caps = n, reserving what is left.
func TestProbabilisticLoungeSelfReservation(t *testing.T) {
	for _, c := range []struct {
		name     string
		capacity float64 // the lounge's downlink
		own, nbr int     // connections in the lounge and next door
		feasible bool
	}{
		{"feasible", 560e3, 4, 20, true},
		{"infeasible", 280e3, 7, 40, false},
	} {
		t.Run(c.name, func(t *testing.T) {
			env, err := topology.EnvironmentFromJSON(strings.NewReader(fmt.Sprintf(`{
			  "cells": [{"id": "la", "class": "lounge", "capacity": %g}, {"id": "lb", "class": "lounge"}],
			  "edges": [["la", "lb"]]
			}`, c.capacity)))
			if err != nil {
				t.Fatal(err)
			}
			m, err := NewManager(des.New(), env, Config{})
			if err != nil {
				t.Fatal(err)
			}
			open := func(cell topology.CellID, n int) {
				for i := 0; i < n; i++ {
					p := fmt.Sprintf("%s-%d", cell, i)
					if err := m.PlacePortable(p, cell); err != nil {
						t.Fatal(err)
					}
					if _, err := m.OpenConnection(p, req(16e3, 32e3)); err != nil {
						t.Fatalf("%s: %v", p, err)
					}
				}
			}
			open("la", c.own)
			open("lb", c.nbr)
			// The first policy slot ends at 60 s.
			if err := m.Sim.RunUntil(policySlot); err != nil {
				t.Fatal(err)
			}
			la := env.Universe.Cell("la")
			classes := []reserve.ClassState{{Bandwidth: 1, Mu: 1.0 / 600, Handoff: 0.5}}
			plan, err := reserve.ProbabilisticPlan(classes, []int{c.own}, []int{c.nbr}, int(c.capacity/perUserBW), policySlot, 0.05)
			if c.feasible != (err == nil) {
				t.Fatalf("ProbabilisticPlan err = %v, want feasible %v", err, c.feasible)
			}
			if !c.feasible && plan.MaxConns[0] != c.own {
				t.Fatalf("infeasible plan caps at %v, want the occupancy %d", plan.MaxConns, c.own)
			}
			want := float64(plan.Reserved) * perUserBW
			if want <= 0 {
				t.Fatalf("the plan reserves nothing (%+v): the case cannot tell the booking from none", plan)
			}
			var got float64
			if book := m.cells[la.Index].book; book != nil {
				got = book.tags["policy:la:self"]
			}
			if got != want {
				t.Errorf("policy:la:self = %g, want %d units × %g = %g", got, plan.Reserved, perUserBW, want)
			}
		})
	}
}
