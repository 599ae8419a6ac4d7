package core

import (
	"strings"
	"testing"

	"armnet/internal/des"
	"armnet/internal/qos"
	"armnet/internal/topology"
)

// TestOverloadAuditorAsksWhoCanDegrade drives the degrade-before-drop
// auditor with overload control disarmed, so no cascade caps the
// contended link first: a handoff is dropped on a downlink where another
// connection holds more than its b_min. The auditor must report the
// holder when a cascade could have reclaimed that excess — a static,
// adaptable connection — and stay silent when the holder is mobile,
// which no cascade degrades. A mobile connection is pinned at b_min, so
// the mobile case raises its allocation on the ledger by hand: only a
// holder above b_min reaches the predicate at all.
func TestOverloadAuditorAsksWhoCanDegrade(t *testing.T) {
	for _, c := range []struct {
		name string
		tth  float64 // the holder turns static after sitting this long
		want bool    // whether the drop is a violation
	}{
		{"static", 10, true},
		{"mobile", 300, false},
	} {
		t.Run(c.name, func(t *testing.T) {
			env, err := topology.EnvironmentFromJSON(strings.NewReader(`{
			  "cells": [{"id": "x", "class": "office"}, {"id": "y", "class": "office"}],
			  "edges": [["x", "y"]]
			}`))
			if err != nil {
				t.Fatal(err)
			}
			m, err := NewManager(des.New(), env, Config{Mode: ModeNone, Tth: c.tth})
			if err != nil {
				t.Fatal(err)
			}
			aud := m.OverloadAuditor()
			if err := m.PlacePortable("holder", "x"); err != nil {
				t.Fatal(err)
			}
			held, err := m.OpenConnection("holder", req(800e3, 1.6e6))
			if err != nil {
				t.Fatal(err)
			}
			if err := m.PlacePortable("mover", "y"); err != nil {
				t.Fatal(err)
			}
			if _, err := m.OpenConnection("mover", req(900e3, 1.2e6)); err != nil {
				t.Fatal(err)
			}
			if err := m.Sim.RunUntil(30); err != nil {
				t.Fatal(err)
			}
			if static := m.portables["holder"].Mobility == qos.Static; static != c.want {
				t.Fatalf("holder static = %v, want %v", static, c.want)
			}
			x := env.Universe.Cell("x")
			down := m.ledger.Link(env.Backbone.Link(x.BaseStation, topology.AirNode(x.ID)).ID)
			if !c.want {
				if err := m.ledger.SetAllocation(held, down.Link.ID, 1.2e6); err != nil {
					t.Fatal(err)
				}
			}
			if al, ok := down.Alloc(held); !ok || al.Cur <= al.Min {
				t.Fatalf("%s holds %+v on x's downlink, want more than its b_min", held, al)
			}
			if err := m.HandoffPortable("mover", "x"); err != nil {
				t.Fatal(err)
			}
			if m.Met.Counter.Get(CtrHandoffDropped) != 1 {
				t.Fatalf("counters %s: want the one handoff dropped", m.Met.Counter)
			}
			got := strings.Join(aud.Violations, "\n")
			if reported := strings.HasPrefix(got, "degrade-before-drop: ") && strings.Contains(got, held); reported != c.want || len(aud.Violations) > 1 {
				t.Errorf("violations:\n%s\nwant a degrade-before-drop naming %s: %v", got, held, c.want)
			}
		})
	}
}
