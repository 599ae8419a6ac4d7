package strategy_test

import (
	"fmt"
	"math"
	"testing"

	"armnet/internal/adapt"
	"armnet/internal/admission"
	"armnet/internal/des"
	"armnet/internal/faults"
	"armnet/internal/maxmin"
	"armnet/internal/qos"
	"armnet/internal/randx"
	"armnet/internal/strategy"
	"armnet/internal/topology"
)

// TestAdmittersNeverAdmitUnbookable is the roster's safety property:
// whatever policy an admission.Admitter implements, a flow it admits
// must be bookable — after every admission, each route link carries
// ΣMin ≤ Capacity and the ledger passes the faults auditor's
// conservation check (CheckFinal with no closures runs only that). A rival admitter may block more or fewer flows
// than Table 2, but it may never oversubscribe the committed minima.
func TestAdmittersNeverAdmitUnbookable(t *testing.T) {
	for _, name := range strategy.Admitters() {
		t.Run(name, func(t *testing.T) {
			b := topology.NewBackbone()
			for _, id := range []topology.NodeID{"h", "bs", "air"} {
				if _, err := b.AddNode(topology.Node{ID: id}); err != nil {
					t.Fatal(err)
				}
			}
			if err := b.AddDuplex(topology.Link{From: "h", To: "bs", Capacity: 3e6, PropDelay: 1e-3}); err != nil {
				t.Fatal(err)
			}
			if err := b.AddDuplex(topology.Link{From: "bs", To: "air", Capacity: 1.6e6, Wireless: true}); err != nil {
				t.Fatal(err)
			}
			route, err := b.ShortestPath("h", "air")
			if err != nil {
				t.Fatal(err)
			}
			lg := admission.NewLedger(b)
			adm, err := strategy.NewAdmitter(name, lg, nil)
			if err != nil {
				t.Fatal(err)
			}
			auditor := &faults.Auditor{Ledger: lg}
			rng := randx.New(int64(len(name))*1000 + 42)
			live := []string{}
			admitted, next := 0, 0
			for op := 0; op < 400; op++ {
				if len(live) > 0 && rng.Float64() < 0.3 {
					i := rng.Intn(len(live))
					lg.Release(live[i], route)
					live = append(live[:i], live[i+1:]...)
					continue
				}
				bmin := 50e3 + rng.Float64()*350e3
				kind := []admission.Kind{admission.KindNew, admission.KindHandoff,
					admission.KindPoolClaim}[rng.Intn(3)]
				mob := []qos.Mobility{qos.Mobile, qos.Static}[rng.Intn(2)]
				next++
				id := fmt.Sprintf("c%d", next)
				res, err := adm.Admit(admission.Test{
					ConnID: id,
					Req: qos.Request{
						Bandwidth: qos.Bounds{Min: bmin, Max: bmin * (1 + 3*rng.Float64())},
						Delay:     0.5 + 4*rng.Float64(),
						Jitter:    0.5 + 4*rng.Float64(),
						Loss:      0.05,
						Traffic:   qos.TrafficSpec{Sigma: bmin / 4, Rho: bmin},
					},
					Route: route, Kind: kind, Mobility: mob,
				})
				if err != nil {
					t.Fatal(err)
				}
				if !res.Admitted {
					continue
				}
				admitted++
				live = append(live, id)
				for _, l := range route.Links {
					ls := lg.Link(l.ID)
					if ls.SumMin() > ls.Capacity+1e-6 {
						t.Fatalf("op %d: %s admitted %s and oversubscribed %s: ΣMin %v > capacity %v",
							op, name, id, l.ID, ls.SumMin(), ls.Capacity)
					}
				}
				if v := auditor.CheckFinal(); len(v) != 0 {
					t.Fatalf("op %d: conservation violated after admitting %s: %v", op, id, v)
				}
			}
			if admitted == 0 {
				t.Fatalf("%s admitted nothing over 400 random ops; property is vacuous", name)
			}
		})
	}
}

// TestDegradeRestoreRoundTripUnderEachAllocator: the overload cascade's
// degrade/restore cycle must round-trip under every allocator's switch
// rule — a degraded connection drops to b_min in the ledger, and a
// restore returns the system to the exact pre-degrade allocation.
func TestDegradeRestoreRoundTripUnderEachAllocator(t *testing.T) {
	for _, name := range strategy.Allocators() {
		t.Run(name, func(t *testing.T) {
			b := topology.NewBackbone()
			for _, id := range []topology.NodeID{"h", "bs", "air"} {
				if _, err := b.AddNode(topology.Node{ID: id}); err != nil {
					t.Fatal(err)
				}
			}
			if err := b.AddDuplex(topology.Link{From: "h", To: "bs", Capacity: 10e6, PropDelay: 1e-3}); err != nil {
				t.Fatal(err)
			}
			if err := b.AddDuplex(topology.Link{From: "bs", To: "air", Capacity: 1.6e6, Wireless: true}); err != nil {
				t.Fatal(err)
			}
			route, err := b.ShortestPath("h", "air")
			if err != nil {
				t.Fatal(err)
			}
			sim := des.New()
			lg := admission.NewLedger(b)
			ctl := admission.NewController(lg)
			rule, err := strategy.Rule(name)
			if err != nil {
				t.Fatal(err)
			}
			mgr, err := adapt.NewManagerWith(sim, lg, maxmin.ProtocolOptions{Refined: true}, rule)
			if err != nil {
				t.Fatal(err)
			}
			req := qos.Request{
				Bandwidth: qos.Bounds{Min: 100e3, Max: 1e6},
				Delay:     5, Jitter: 5, Loss: 0.05,
				Traffic: qos.TrafficSpec{Sigma: 10e3, Rho: 100e3},
			}
			recs := map[string]*adapt.Conn{}
			for _, id := range []string{"a", "b"} {
				res, err := ctl.Admit(admission.Test{ConnID: id, Req: req, Route: route, Mobility: qos.Static})
				if err != nil || !res.Admitted {
					t.Fatalf("admit %s: %+v %v", id, res, err)
				}
				if recs[id], err = mgr.Open(id, route, req.Bandwidth, qos.Static); err != nil {
					t.Fatal(err)
				}
			}
			if err := sim.RunUntil(60); err != nil {
				t.Fatal(err)
			}
			// alloc reads a connection's allocation from its ledger row
			// on the first link of the route.
			alloc := func(id string) float64 {
				al, ok := lg.Link(route.Links[0].ID).Alloc(id)
				if !ok {
					t.Fatalf("%s: %s holds no row on %s", name, id, route.Links[0].ID)
				}
				return al.Cur
			}
			before := map[string]float64{}
			for _, id := range []string{"a", "b"} {
				v := alloc(id)
				if v <= req.Bandwidth.Min {
					t.Fatalf("%s: allocation[%s] = %v never adapted above b_min", name, id, v)
				}
				before[id] = v
			}
			if !mgr.Degrade(recs["a"]) {
				t.Fatalf("%s: Degrade(a) refused", name)
			}
			if mgr.Degrade(recs["a"]) {
				t.Fatalf("%s: a second Degrade(a) was taken: a not marked degraded", name)
			}
			if err := sim.RunUntil(120); err != nil {
				t.Fatal(err)
			}
			if v := alloc("a"); v != req.Bandwidth.Min {
				t.Fatalf("%s: degraded allocation[a] = %v, want b_min %v", name, v, req.Bandwidth.Min)
			}
			if v := alloc("b"); v < before["b"]-1 {
				t.Fatalf("%s: b lost bandwidth (%v -> %v) while a was degraded", name, before["b"], v)
			}
			if !mgr.Restore(recs["a"]) {
				t.Fatalf("%s: Restore(a) refused", name)
			}
			if mgr.Restore(recs["a"]) {
				t.Fatalf("%s: a second Restore(a) lifted a cap: a still marked degraded after restore", name)
			}
			if err := sim.RunUntil(240); err != nil {
				t.Fatal(err)
			}
			for _, id := range []string{"a", "b"} {
				if v := alloc(id); math.Abs(v-before[id]) > 1e3 {
					t.Fatalf("%s: allocation[%s] = %v after restore, want pre-degrade %v",
						name, id, v, before[id])
				}
			}
		})
	}
}
