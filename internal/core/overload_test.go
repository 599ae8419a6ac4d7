package core

import (
	"strings"
	"testing"

	"armnet/internal/des"
	"armnet/internal/eventbus"
	"armnet/internal/overload"
	"armnet/internal/qos"
	"armnet/internal/sortx"
	"armnet/internal/topology"
)

// TestOverloadAuditorAsksWhoCanDegrade drives the degrade-before-drop
// auditor with overload control disarmed, so no cascade caps the
// contended link first: a handoff is dropped on a downlink where a
// static connection, adapted above its b_min, holds the excess a cascade
// could have reclaimed. The auditor must report the holder. (Only such a
// connection is ever above b_min: TestOnlyAdaptableConnectionsExceedBMin.)
func TestOverloadAuditorAsksWhoCanDegrade(t *testing.T) {
	t.Run("static", func(t *testing.T) {
		env, err := topology.EnvironmentFromJSON(strings.NewReader(`{
		  "cells": [{"id": "x", "class": "office"}, {"id": "y", "class": "office"}],
		  "edges": [["x", "y"]]
		}`))
		if err != nil {
			t.Fatal(err)
		}
		m, err := NewManager(des.New(), env, Config{Mode: ModeNone, Tth: 10})
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
		if m.portables["holder"].Mobility != qos.Static {
			t.Fatal("holder is not static after sitting 30 s")
		}
		x := env.Universe.Cell("x")
		down := m.ledger.Link(env.Backbone.Link(x.BaseStation, topology.AirNode(x.ID)).ID)
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
		if !strings.HasPrefix(got, "degrade-before-drop: ") || !strings.Contains(got, held) || len(aud.Violations) > 1 {
			t.Errorf("violations:\n%s\nwant one degrade-before-drop naming %s", got, held)
		}
	})
}

// TestOnlyAdaptableConnectionsExceedBMin pins what lets the overload
// auditor report every row above b_min without asking who could give it
// back: §5.3 adapts only static portables' connections and holds mobile
// ones at b_min, so a ledger row above its b_min belongs to a live
// connection of a static portable, of positive width, with a session in
// the allocation protocol (adapt keeps a connection there exactly while
// it is static and not degraded) — never to a mobile or degraded
// connection, nor to a multicast leg. An overload walk (with degrade
// cascades) and a campus walk, both renegotiating, check it at every
// handoff outcome and degrade cascade and at the horizon. Their portables
// turn static after Tth and mobile at each handoff; every 30 s the first
// static portable holding more than its b_min also turns mobile where it
// sits, as a handoff's tail does, since a handoff re-admits its
// connections as mobile before that and only an in-place flip reaches
// adapt's reset to b_min.
func TestOnlyAdaptableConnectionsExceedBMin(t *testing.T) {
	pol := overload.Default()
	for _, c := range []struct {
		name string
		cfg  Config
		n    int
		bw   qos.Bounds
	}{
		{"overload", Config{Seed: 5, Tth: 20, Overload: &pol}, 80, qos.Bounds{Min: 160e3, Max: 320e3}},
		{"campus", Config{Seed: 1, Tth: 20}, 24, qos.Bounds{Min: 32e3, Max: 128e3}},
	} {
		t.Run(c.name, func(t *testing.T) {
			var m *Manager
			checks, above, flips := 0, 0, 0
			// aboveMin reports whether any row of conn's is above its b_min.
			aboveMin := func(conn *Connection) bool {
				for _, ls := range m.ledger.Links() {
					if al, ok := ls.Alloc(conn.ID); ok && al.Cur > al.Min+1e-6 {
						return true
					}
				}
				return false
			}
			check := func(at string) {
				t.Helper()
				checks++
				inProtocol := map[string]bool{}
				for _, pc := range m.Adpt.Alloc.Problem().Conns {
					inProtocol[pc.ID] = true
				}
				for _, ls := range m.ledger.Links() {
					for _, id := range ls.Conns() {
						al, _ := ls.Alloc(id)
						if al.Cur <= al.Min+1e-6 {
							continue
						}
						above++
						conn := m.conns[id]
						var why string
						switch {
						case strings.Contains(id, "@"):
							why = "a multicast leg"
						case conn == nil:
							why = "no live connection"
						case m.portables[conn.Portable] == nil || m.portables[conn.Portable].Mobility != qos.Static:
							why = "a connection of a portable that is not static"
						case conn.Req.Bandwidth.Width() <= 0:
							why = "a connection of zero width"
						case !inProtocol[id]:
							why = "a connection out of the allocation protocol (degraded)"
						default:
							continue
						}
						t.Fatalf("t=%v at %s: %s holds %g > b_min %g on %s, and is %s", m.Sim.Now(), at, id, al.Cur, al.Min, ls.Link.ID, why)
					}
				}
			}
			walkChecked(t, c.cfg, c.n, 1200, c.bw, false, func(mgr *Manager) {
				m = mgr
				eventbus.On(m.Bus, func(ev eventbus.HandoffOutcome) { check("the handoff outcome of " + ev.Conn) })
				eventbus.On(m.Bus, func(ev eventbus.DegradeCascade) { check(ev.Action + " of " + ev.Conn) })
				var flip func()
				flip = func() {
				next:
					for _, id := range sortx.Keys(m.portables) {
						p := m.portables[id]
						if p.Mobility != qos.Static {
							continue
						}
						for _, conn := range p.conns {
							if aboveMin(conn) {
								m.becomeMobile(p)
								m.armStaticTimer(p)
								m.refreshAdvance(p)
								m.adjustPools(p.at)
								flips++
								break next
							}
						}
					}
					m.Sim.After(30, flip)
				}
				m.Sim.After(30, flip)
			})
			check("the horizon")
			cascades := m.Met.Counter.Get(CtrDegradeCascades)
			if above == 0 || flips == 0 || (c.cfg.Overload != nil) != (cascades > 0) {
				t.Fatalf("%d rows above b_min seen, %d in-place flips, %d degrade cascades: the walk must show rows above b_min and flips, and cascades under overload control", above, flips, cascades)
			}
			t.Logf("%d checks saw %d rows above b_min; %d in-place flips, %d degrade cascades", checks, above, flips, cascades)
		})
	}
}
