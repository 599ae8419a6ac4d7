package armnet_test

import (
	"context"
	"errors"
	"fmt"
	"strings"

	"armnet"
)

// ExampleNetwork shows the core loop: place a portable, open a
// QoS-bounded connection, let it adapt while static, and hand off.
func ExampleNetwork() {
	env, _ := armnet.BuildCampus()
	net, _ := armnet.NewNetwork(env, armnet.Config{Seed: 42, Tth: 120})

	_ = net.PlacePortable("alice", "off-1")
	id, _ := net.OpenConnection("alice", armnet.Request{
		Bandwidth: armnet.Bounds{Min: 64e3, Max: 256e3},
		Delay:     2, Jitter: 2, Loss: 0.02,
		Traffic: armnet.TrafficSpec{Sigma: 16e3, Rho: 64e3},
	})
	fmt.Printf("admitted at %.0f b/s\n", net.Connection(id).Bandwidth)

	_ = net.RunUntil(300) // past T_th: alice is static, upgraded
	fmt.Printf("%s portable at %.0f b/s\n",
		net.Portable("alice").Mobility, net.Connection(id).Bandwidth)

	_ = net.HandoffPortable("alice", "cor-w1")
	fmt.Printf("after handoff: %.0f b/s in %s\n",
		net.Connection(id).Bandwidth, net.Portable("alice").Cell)

	m := net.Metrics().Counter
	fmt.Printf("handoffs: %d ok, %d dropped; adaptation updates: %d\n",
		m.Get(armnet.CtrHandoffOK), m.Get(armnet.CtrHandoffDropped), m.Get(armnet.CtrAdaptUpdates))
	// Output:
	// admitted at 64000 b/s
	// static portable at 256000 b/s
	// after handoff: 64000 b/s in cor-w1
	// handoffs: 1 ok, 0 dropped; adaptation updates: 1
}

// ExampleNetwork_adaptation runs the §5.3 bandwidth adaptation loop
// while the wireless capacity of one cell changes. Three static portables
// share one 1.6 Mb/s cell with loose QoS bounds; the air interface is cut
// twice and restored by direct CapacityChanged calls, and the distributed
// maxmin protocol re-converges the allocations after every change —
// never below any connection's b_min.
func ExampleNetwork_adaptation() {
	env, _ := armnet.BuildCampus()
	net, _ := armnet.NewNetwork(env, armnet.Config{Seed: 9, Tth: 60})

	// Three users in the same office cell, one connection each; every
	// rate change the protocol commits is checked against b_min.
	req := armnet.Request{
		Bandwidth: armnet.Bounds{Min: 100e3, Max: 1.2e6},
		Delay:     5, Jitter: 5, Loss: 0.05,
		Traffic: armnet.TrafficSpec{Sigma: 25e3, Rho: 100e3},
	}
	aboveMin := true
	var ids []string
	for _, who := range []string{"ana", "ben", "cho"} {
		_ = net.PlacePortable(who, "off-1")
		id, _ := net.OpenConnection(who, req)
		_ = net.WatchBandwidth(id, func(bw float64) { aboveMin = aboveMin && bw >= req.Bandwidth.Min })
		ids = append(ids, id)
	}

	mgr := net.Manager()
	wireless := env.Backbone.Link(env.Universe.Cell("off-1").BaseStation, armnet.AirNode("off-1")).ID
	report := func(label string) {
		fmt.Printf("t=%5.0fs  %-34s", net.Now(), label)
		for i, id := range ids {
			fmt.Printf("  c%d=%7.0f", i, net.Connection(id).Bandwidth)
		}
		fmt.Println(" b/s")
	}

	// Let everyone become static and adapt up, then degrade the channel
	// twice and restore it.
	net.Schedule(200, func() { report("static, adapted to fair shares") })
	net.Schedule(300, func() { _ = mgr.Adpt.CapacityChanged(wireless, 900e3) })
	net.Schedule(500, func() { report("capacity degraded to 900 kb/s") })
	net.Schedule(600, func() { _ = mgr.Adpt.CapacityChanged(wireless, 400e3) })
	net.Schedule(800, func() { report("deep fade: 400 kb/s") })
	net.Schedule(900, func() { _ = mgr.Adpt.CapacityChanged(wireless, 1.6e6) })
	net.Schedule(1200, func() { report("channel restored to 1.6 Mb/s") })

	_ = net.RunUntil(1300)
	fmt.Printf("\nadaptation updates committed: %d\n",
		net.Metrics().Counter.Get(armnet.CtrAdaptUpdates))
	if aboveMin {
		fmt.Println("note: every allocation stayed at or above b_min = 100 kb/s —")
		fmt.Println("the paper's QoS bound held through every capacity change.")
	} else {
		fmt.Println("an allocation fell below b_min: the QoS bound was VIOLATED.")
	}
	// Output:
	// t=  200s  static, adapted to fair shares      c0= 533333  c1= 533333  c2= 533333 b/s
	// t=  500s  capacity degraded to 900 kb/s       c0= 300000  c1= 300000  c2= 300000 b/s
	// t=  800s  deep fade: 400 kb/s                 c0= 133333  c1= 133333  c2= 133333 b/s
	// t= 1200s  channel restored to 1.6 Mb/s        c0= 533333  c1= 533333  c2= 533333 b/s
	//
	// adaptation updates committed: 12
	// note: every allocation stayed at or above b_min = 100 kb/s —
	// the paper's QoS bound held through every capacity change.
}

// ExampleRunArena is the head-to-head strategy comparison: every
// registered allocator/admitter pair runs the identical loaded campus
// workload — same seed, mobility trace and QoS demands — so differences
// are attributable to the strategies alone. The rendered table is pinned
// by internal/sim's arena snapshot golden; this prints the pair with the
// fewest dropped handoffs.
func ExampleRunArena() {
	fmt.Printf("registered allocators: %v\n", armnet.Allocators())
	fmt.Printf("registered admitters:  %v\n\n", armnet.Admitters())

	cfg := armnet.ArenaConfig{CampusConfig: armnet.CampusConfig{
		Config:    armnet.Config{Seed: 1},
		Portables: 24,
		Duration:  900,
		// Demands that actually load the 1.6 Mb/s cells; an uncontended
		// workload renders every strategy identical.
		BMin: 256e3,
		BMax: 1.2e6,
	}}
	entries, _, _ := armnet.RunArena(context.Background(), cfg, 1)

	best := entries[0]
	for _, e := range entries[1:] {
		if e.DropRate < best.DropRate ||
			(e.DropRate == best.DropRate && e.Control.Messages < best.Control.Messages) {
			best = e
		}
	}
	fmt.Printf("fewest dropped handoffs (control packets as tiebreak): %s+%s\n", best.Pair.Allocator, best.Pair.Admitter)
	// Output:
	// registered allocators: [erica logweight maxmin]
	// registered admitters:  [measured table2]
	//
	// fewest dropped handoffs (control packets as tiebreak): erica+table2
}

// ExampleRunFigure4 is the paper's Figure 4 environment with
// profile-based prediction. Regular occupants commute between the
// corridor and their offices for a simulated workweek; the profile
// servers learn their habits, and the report shows how often the
// three-level predictor places the advance reservation in the right cell
// — versus the brute-force baseline that reserves in every neighbor.
func ExampleRunFigure4() {
	res, _ := armnet.RunFigure4(armnet.Figure4Config{Seed: 7})

	fmt.Println("ECE-building workweek (calibrated to the paper's measured handoffs)")
	fmt.Println()
	fmt.Print(res.String())
	fmt.Println()

	waste := float64(res.Crowd.BruteForceCells) / float64(res.Crowd.ReservedCells)
	fmt.Printf("brute force reserves %.1fx more cells than prediction for the anonymous crowd.\n", waste)
	fmt.Println()
	fmt.Println("paper's conclusions reproduced:")
	fmt.Printf("  (a) deterministic reservation for office occupants is valid: faculty %.0f%%, students %.0f%% accurate\n",
		float64(res.Faculty.Correct)/float64(res.Faculty.Transits)*100,
		float64(res.Students.Correct)/float64(res.Students.Transits)*100)
	fmt.Printf("  (b) brute-force advance reservation in all neighbors is extremely wasteful (%.0fx)\n", waste)
	// Output:
	// ECE-building workweek (calibrated to the paper's measured handoffs)
	//
	// trace aggregates (paper: faculty 94/20/13, students 12/173/31, crowd 39/17/1328):
	//   faculty  94/20/13
	//   students 12/173/31
	//   crowd    39/17/1328
	// faculty  transits=57 accuracy=0.68 reserved-cells=57 brute-force-cells=285
	// students transits=90 accuracy=0.81 reserved-cells=90 brute-force-cells=450
	// crowd    transits=614 accuracy=0.46 reserved-cells=614 brute-force-cells=3070
	//
	// brute force reserves 5.0x more cells than prediction for the anonymous crowd.
	//
	// paper's conclusions reproduced:
	//   (a) deterministic reservation for office occupants is valid: faculty 68%, students 81% accurate
	//   (b) brute-force advance reservation in all neighbors is extremely wasteful (5x)
}

// ExampleNetwork_NewDataplane closes the loop between admission control
// and packets on the wire. A connection is admitted with Table 2
// guarantees; its traffic then runs on the packet-level data path
// (per-link WFQ servers, wireless loss), with a greedy competitor
// alongside. The measured delay and loss must sit inside the admitted
// bounds.
func ExampleNetwork_NewDataplane() {
	env, _ := armnet.BuildCampus()
	net, _ := armnet.NewNetwork(env, armnet.Config{Seed: 11})
	_ = net.PlacePortable("alice", "off-1")
	req := armnet.Request{
		Bandwidth: armnet.Bounds{Min: 256e3, Max: 256e3},
		Delay:     2, Jitter: 2, Loss: 0.05,
		Traffic: armnet.TrafficSpec{Sigma: 32e3, Rho: 256e3},
	}
	id, _ := net.OpenConnection("alice", req)
	conn := net.Connection(id)

	dp, _ := net.NewDataplane(armnet.DataplaneOptions{Seed: 11})
	_ = dp.StartFlow(id, conn.Route, conn.Bandwidth, req.Traffic)
	// A greedy best-effort competitor on the same path, sourcing far
	// beyond its share: WFQ must protect alice.
	_ = dp.StartFlow("greedy", conn.Route, 1.3e6, armnet.TrafficSpec{Sigma: 64e3, Rho: 3e6})

	_ = net.RunUntil(30)
	st := dp.Stats(id)
	fmt.Printf("admitted: bandwidth %.0f b/s, delay bound %.3fs, loss bound %.3f\n",
		conn.Bandwidth, req.Delay, req.Loss)
	fmt.Printf("measured: %d packets delivered\n", st.Delivered)
	fmt.Printf("          delay mean %.4fs  max %.4fs  (bound %.3fs)\n",
		st.Delay.Mean(), st.Delay.Max(), req.Delay)
	fmt.Printf("          loss %.4f (bound %.3f)\n", st.LossRate(), req.Loss)
	if st.Delay.Max() <= req.Delay && st.LossRate() <= req.Loss {
		fmt.Println("the admitted QoS held on the wire despite the greedy competitor.")
	} else {
		fmt.Println("BOUND VIOLATED — this should never print.")
	}
	// Output:
	// admitted: bandwidth 256000 b/s, delay bound 2.000s, loss bound 0.050
	// measured: 933 packets delivered
	//           delay mean 0.0430s  max 0.0771s  (bound 2.000s)
	//           loss 0.0064 (bound 0.050)
	// the admitted QoS held on the wire despite the greedy competitor.
}

// ExampleParseFaultPlan runs the campus under a deterministic chaos
// schedule — a lossy control plane, a cell outage, and a signaling-plane
// crash — then audits the recovery invariants. The network retransmits
// lost setup messages and adaptation sweeps and reclaims crash-orphaned
// holds by lease; the auditor proves no resources leaked and the maxmin
// allocation re-converged.
func ExampleParseFaultPlan() {
	const plan = `
# 10% of all control messages vanish, setup and adaptation alike.
drop any 0.1
# Office 2 loses power for a minute mid-run, then comes back.
at 120 cell-out off-2 for 60
# The signaling plane crashes, stranding in-flight tentative holds.
at 300 crash-signaling
`
	env, _ := armnet.BuildCampus()
	fp, err := armnet.ParseFaultPlan(strings.NewReader(plan))
	if err != nil {
		fmt.Println(err)
		return
	}
	// Crash-orphaned holds are reclaimed 10 simulated seconds after
	// their session dies.
	net, _ := armnet.NewNetwork(env, armnet.Config{Seed: 1, Faults: fp})
	// The auditor watches the run: ledger conservation is re-checked
	// after every component fault.
	aud := net.FaultAuditor()

	// A small population, each opening a connection through the
	// signaling plane — the path the fault plan perturbs.
	placements := []struct {
		who  string
		cell armnet.CellID
	}{
		{"alice", "off-1"}, {"bob", "off-2"}, {"carol", "cor-w1"}, {"dave", "cor-e1"},
	}
	for _, p := range placements {
		who := p.who
		_ = net.PlacePortable(who, p.cell)
		err := net.OpenConnectionAsync(who, armnet.Request{
			Bandwidth: armnet.Bounds{Min: 64e3, Max: 256e3},
			Delay:     5, Jitter: 5, Loss: 0.05,
			Traffic: armnet.TrafficSpec{Sigma: 16e3, Rho: 64e3},
		}, func(id string, err error) {
			if err != nil {
				fmt.Printf("t=%6.3fs %s: setup failed: %v\n", net.Now(), who, err)
				return
			}
			fmt.Printf("t=%6.3fs %s: admitted as %s\n", net.Now(), who, id)
		})
		if err != nil {
			fmt.Printf("%s: %v\n", who, err)
		}
	}

	_ = net.RunUntil(600)

	c := net.Metrics().Counter
	fmt.Printf("\nfaults injected:      %d\n", c.Get(armnet.CtrFaultsInjected))
	fmt.Printf("retransmissions:      %d\n", c.Get(armnet.CtrRetransmits))
	fmt.Printf("holds reclaimed:      %d\n", c.Get(armnet.CtrReclaimedHolds))

	// Audit the recovery invariants: conservation, no leaked holds, no
	// allocations owned by dead connections, maxmin re-converged.
	if v := aud.CheckFinal(); len(v) > 0 {
		fmt.Println("\nrecovery invariants VIOLATED:")
		for _, s := range v {
			fmt.Println(" ", s)
		}
		return
	}
	fmt.Println("\nrecovery invariants hold: nothing leaked, ledger conserved")
	// Output:
	// t= 0.008s dave: admitted as conn-3
	// t= 0.058s alice: admitted as conn-0
	// t= 0.108s carol: admitted as conn-2
	// t= 0.404s bob: setup failed: core: connection rejected: signal: control message lost: commit confirmation
	//
	// faults injected:      47
	// retransmissions:      39
	// holds reclaimed:      0
	//
	// recovery invariants hold: nothing leaked, ledger conserved
}

// ExampleNetwork_LearnClasses is the §6.4 learning process. A building
// is commissioned with no cell classes configured — every cell starts
// unknown and uses the default reservation algorithm. As portables move,
// the zone profile servers aggregate handoffs; LearnClasses then infers
// each cell's class from its behaviour: the office from its tiny regular
// population, the corridors from their consistent pass-through movement.
func ExampleNetwork_LearnClasses() {
	// An unlabeled wing: in reality an office, two corridor segments and
	// a lounge — but the network does not know that yet.
	env, _ := armnet.EnvironmentFromJSON(strings.NewReader(`{
	  "cells": [
	    {"id": "room-1", "occupants": ["prof"]},
	    {"id": "hall-1"}, {"id": "hall-2"}, {"id": "commons"}
	  ],
	  "edges": [["room-1", "hall-1"], ["hall-1", "hall-2"], ["hall-2", "commons"]]
	}`))
	u := env.Universe
	net, _ := armnet.NewNetwork(env, armnet.Config{Seed: 5})

	fmt.Println("before observation:")
	for _, c := range u.Cells() {
		fmt.Printf("  %-8s %s\n", c.ID, c.Class)
	}

	// The professor commutes commons <-> room-1 through the halls, over
	// and over; anonymous visitors pass through the halls both ways.
	_ = net.PlacePortable("prof", "commons")
	walk := func(id string, path ...armnet.CellID) {
		for _, c := range path {
			_ = net.HandoffPortable(id, c)
		}
	}
	for day := 0; day < 25; day++ {
		walk("prof", "hall-2", "hall-1", "room-1")
		walk("prof", "hall-1", "hall-2", "commons")
	}
	for i := 0; i < 60; i++ {
		id := fmt.Sprintf("visitor-%d", i)
		if i%2 == 0 {
			_ = net.PlacePortable(id, "commons")
			walk(id, "hall-2", "hall-1")
			walk(id, "hall-2", "commons")
		} else {
			_ = net.PlacePortable(id, "hall-1")
			walk(id, "hall-2", "commons")
		}
		net.RemovePortable(id)
	}

	changed := net.LearnClasses()
	fmt.Printf("\nlearning pass classified %d cells:\n", len(changed))
	for _, c := range u.Cells() {
		fmt.Printf("  %-8s %s\n", c.ID, c.Class)
	}
	// Output:
	// before observation:
	//   commons  unknown
	//   hall-1   unknown
	//   hall-2   unknown
	//   room-1   unknown
	//
	// learning pass classified 4 cells:
	//   commons  lounge-default
	//   hall-1   lounge-default
	//   hall-2   corridor
	//   room-1   office
}

// ExampleNetwork_RegisterMeeting is the booking-calendar policy of
// §6.2.1 on the integrated network. A meeting is registered in the
// campus meeting room; the base station advance-reserves attendee slots
// ahead of the start, shrinks the reservation as attendees arrive, and
// asks the neighbors to hold bandwidth for the departures at the
// conclusion.
func ExampleNetwork_RegisterMeeting() {
	env, _ := armnet.BuildCampus()
	net, _ := armnet.NewNetwork(env, armnet.Config{Seed: 3})

	const start, end = 1800.0, 3600.0
	const attendees = 10
	_ = net.RegisterMeeting("meet", armnet.Meeting{Start: start, End: end, Attendees: attendees})

	mgr := net.Manager()
	wireless := func(cell armnet.CellID) float64 {
		bs := env.Universe.Cell(cell).BaseStation
		return mgr.Ledger().Link(env.Backbone.Link(bs, armnet.AirNode(cell)).ID).AdvanceReserved
	}
	report := func(label string) {
		room := wireless("meet")
		var neighbors float64
		for _, nid := range env.Universe.Cell("meet").Neighbors() {
			neighbors += wireless(nid)
		}
		fmt.Printf("t=%5.0fs  %-28s room-reserved=%8.0f b/s  neighbor-reserved=%8.0f b/s\n",
			net.Now(), label, room, neighbors)
	}

	// Attendees trickle in around the start.
	for i := 0; i < attendees; i++ {
		net.Schedule(start-300+float64(i)*40, func() {
			id := fmt.Sprintf("att-%d", i)
			if err := net.PlacePortable(id, "cor-e1"); err != nil {
				return
			}
			// Each attendee carries a 16 kb/s audio connection.
			_, _ = net.OpenConnection(id, armnet.Request{
				Bandwidth: armnet.Bounds{Min: 16e3, Max: 64e3},
				Delay:     5, Jitter: 5, Loss: 0.05,
				Traffic: armnet.TrafficSpec{Sigma: 4e3, Rho: 16e3},
			})
			_ = net.HandoffPortable(id, "meet")
		})
	}
	// And leave after the end.
	for i := 0; i < attendees; i++ {
		net.Schedule(end+30+float64(i)*20, func() {
			_ = net.HandoffPortable(fmt.Sprintf("att-%d", i), "cor-e1")
		})
	}

	checkpoints := []struct {
		t     float64
		label string
	}{
		{start - 700, "before the lead-in window"},
		{start - 500, "lead-in: full N_m reserved"},
		{start - 100, "most attendees arrived"},
		{start + 400, "post-start release expired"},
		{end - 100, "conclusion: neighbors reserve"},
		{end + 1000, "end release expired"},
	}
	for _, cp := range checkpoints {
		net.Schedule(cp.t, func() { report(cp.label) })
	}
	_ = net.RunUntil(end + 1200)

	m := net.Metrics().Counter
	fmt.Printf("\nhandoffs: %d attempted, %d dropped\n",
		m.Get(armnet.CtrHandoffTried), m.Get(armnet.CtrHandoffDropped))
	// Output:
	// t= 1100s  before the lead-in window    room-reserved=       0 b/s  neighbor-reserved=       0 b/s
	// t= 1300s  lead-in: full N_m reserved   room-reserved=  280000 b/s  neighbor-reserved=       0 b/s
	// t= 1700s  most attendees arrived       room-reserved=  124000 b/s  neighbor-reserved=       0 b/s
	// t= 2200s  post-start release expired   room-reserved=       0 b/s  neighbor-reserved=       0 b/s
	// t= 3500s  conclusion: neighbors reserve room-reserved=       0 b/s  neighbor-reserved=  280000 b/s
	// t= 4600s  end release expired          room-reserved=       0 b/s  neighbor-reserved=       0 b/s
	//
	// handoffs: 20 attempted, 0 dropped
}

// ExampleDefaultOverloadPolicy packs one campus cell far past its
// downlink capacity and shows the staged overload controller respond.
// Early arrivals adapt up toward b_max; as utilization crosses the
// degrade watermark their excess is cascaded back to b_min, then new
// setups are shed by priority — and through all of it a roaming portable
// hands off into the hot cell without being dropped, which the auditor
// proves.
func ExampleDefaultOverloadPolicy() {
	env, _ := armnet.BuildCampus()
	pol := armnet.DefaultOverloadPolicy()
	net, _ := armnet.NewNetwork(env, armnet.Config{
		Seed: 1,
		// Aggressive static classification: the crowd sits still, so
		// their connections become adaptable — and degradable — fast.
		Tth:      60,
		Overload: &pol,
	})
	aud := net.OverloadAuditor()

	req := armnet.Request{
		Bandwidth: armnet.Bounds{Min: 160e3, Max: 320e3},
		Delay:     5, Jitter: 5, Loss: 0.05,
		Traffic: armnet.TrafficSpec{Sigma: 40e3, Rho: 160e3},
	}
	// Twelve portables crowd into off-1, ten seconds apart, two
	// connections each: 24 × 160 kb/s of guaranteed minimum against a
	// 1.6 Mb/s downlink. The cell must escalate.
	for i := 0; i < 12; i++ {
		who := fmt.Sprintf("p%02d", i)
		net.Schedule(float64(i)*10, func() {
			_ = net.PlacePortable(who, "off-1")
			report := func(err error) {
				switch {
				case errors.Is(err, armnet.ErrBusy):
					fmt.Printf("t=%5.1fs %s: breaker open, fast-failed\n", net.Now(), who)
				case err != nil:
					fmt.Printf("t=%5.1fs %s: refused: %v\n", net.Now(), who, err)
				}
			}
			for c := 0; c < 2; c++ {
				if err := net.OpenConnectionAsync(who, req, func(id string, err error) { report(err) }); err != nil {
					report(err)
				}
			}
		})
	}
	// The roamer holds a connection in the neighboring office and hands
	// off into the packed cell at peak load. Degrade-before-drop says
	// the cascade must free its minimum before anyone considers a drop.
	_ = net.PlacePortable("roamer", "off-2")
	_, _ = net.OpenConnection("roamer", req)
	net.Schedule(130, func() {
		if err := net.HandoffPortable("roamer", "off-1"); err != nil {
			fmt.Printf("t=%5.1fs roamer: handoff failed: %v\n", net.Now(), err)
		} else {
			fmt.Printf("t=%5.1fs roamer: handed off into the overloaded cell\n", net.Now())
		}
	})

	_ = net.RunUntil(300)

	c := net.Metrics().Counter
	fmt.Printf("\ndegrade cascades:   %d\n", c.Get(armnet.CtrDegradeCascades))
	fmt.Printf("setups shed:        %d\n", c.Get(armnet.CtrShedSetups))
	fmt.Printf("breaker trips:      %d\n", c.Get(armnet.CtrBreakerTrips))
	fmt.Printf("breaker fast-fails: %d\n", c.Get(armnet.CtrBreakerFastFails))
	fmt.Printf("handoffs dropped:   %d\n", c.Get(armnet.CtrHandoffDropped))

	if len(aud.Violations) > 0 {
		fmt.Println("\ndegrade-before-drop VIOLATED:")
		for _, v := range aud.Violations {
			fmt.Println(" ", v)
		}
		return
	}
	fmt.Println("\ndegrade-before-drop holds: every drop was a last resort")
	// Output:
	// t= 40.0s p04: refused: core: connection rejected: signal: rejected at hop 4 (bs-off-1->air-off-1)
	// t= 50.0s p05: refused: core: connection rejected: signal: rejected at hop 4 (bs-off-1->air-off-1)
	// t= 50.0s p05: refused: core: connection rejected: signal: rejected at hop 4 (bs-off-1->air-off-1)
	// t= 60.0s p06: refused: core: connection rejected: signal: rejected at hop 4 (bs-off-1->air-off-1)
	// t= 60.0s p06: refused: core: connection rejected: signal: rejected at hop 4 (bs-off-1->air-off-1)
	// t= 70.0s p07: refused: core: connection rejected: signal: rejected at hop 4 (bs-off-1->air-off-1)
	// t= 70.0s p07: refused: core: connection rejected: signal: rejected at hop 4 (bs-off-1->air-off-1)
	// t= 80.0s p08: refused: core: connection rejected: signal: rejected at hop 4 (bs-off-1->air-off-1)
	// t= 80.0s p08: refused: core: connection rejected: signal: rejected at hop 4 (bs-off-1->air-off-1)
	// t= 90.0s p09: breaker open, fast-failed
	// t= 90.0s p09: breaker open, fast-failed
	// t=100.0s p10: refused: core: connection rejected: signal: rejected at hop 4 (bs-off-1->air-off-1)
	// t=100.0s p10: refused: core: connection rejected: signal: rejected at hop 4 (bs-off-1->air-off-1)
	// t=110.0s p11: breaker open, fast-failed
	// t=110.0s p11: breaker open, fast-failed
	// t=130.0s roamer: handed off into the overloaded cell
	//
	// degrade cascades:   2
	// setups shed:        0
	// breaker trips:      2
	// breaker fast-fails: 4
	// handoffs dropped:   0
	//
	// degrade-before-drop holds: every drop was a last resort
}

// ExampleRunTable2 regenerates the Table 2 admission rows for a 3-hop
// path under WFQ.
func ExampleRunTable2() {
	r, _ := armnet.RunTable2(armnet.Table2Config{})
	fmt.Printf("admitted=%v bandwidth=%.0f hops=%d\n",
		r.Admitted, r.Bandwidth, len(r.Hops))
	fmt.Printf("delay floor %.4fs within bound 2.0s\n", r.DelayFloor)
	// Output:
	// admitted=true bandwidth=64000 hops=3
	// delay floor 0.6408s within bound 2.0s
}

// ExampleErlangB evaluates the analytic blocking probability used to
// validate the Figure 6 simulator.
func ExampleErlangB() {
	fmt.Printf("%.4f\n", armnet.ErlangB(6, 10))
	// Output:
	// 0.0431
}
