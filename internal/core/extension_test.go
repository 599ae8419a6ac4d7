package core

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"

	"armnet/internal/des"
	"armnet/internal/eventbus"
	"armnet/internal/qos"
	"armnet/internal/reserve"
	"armnet/internal/topology"
)

func TestRenegotiateUpgrade(t *testing.T) {
	sim, m := newCampus(t, Config{Tth: 50})
	if err := m.PlacePortable("alice", "off-1"); err != nil {
		t.Fatal(err)
	}
	id, err := m.OpenConnection("alice", req(64e3, 128e3))
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Renegotiate(id, qos.Bounds{Min: 200e3, Max: 600e3}); err != nil {
		t.Fatal(err)
	}
	c := m.Connection(id)
	if c.Req.Bandwidth.Min != 200e3 {
		t.Fatalf("bounds not updated: %+v", c.Req.Bandwidth)
	}
	if c.Bandwidth < 200e3 {
		t.Fatalf("allocation %v below new b_min", c.Bandwidth)
	}
	// Adaptation honors the new bounds once static.
	if err := sim.RunUntil(300); err != nil {
		t.Fatal(err)
	}
	if got := m.Connection(id).Bandwidth; got <= 200e3 || got > 600e3 {
		t.Fatalf("adapted allocation %v outside new bounds", got)
	}
}

func TestRenegotiateRejectionRollsBack(t *testing.T) {
	_, m := newCampus(t, Config{})
	if err := m.PlacePortable("alice", "off-1"); err != nil {
		t.Fatal(err)
	}
	id, err := m.OpenConnection("alice", req(64e3, 128e3))
	if err != nil {
		t.Fatal(err)
	}
	// Ask for more than the cell can hold.
	err = m.Renegotiate(id, qos.Bounds{Min: 2e6, Max: 3e6})
	if !errors.Is(err, ErrRejected) {
		t.Fatalf("err = %v, want ErrRejected", err)
	}
	// The old reservation survives intact.
	c := m.Connection(id)
	if c == nil || c.Req.Bandwidth.Min != 64e3 {
		t.Fatalf("rollback failed: %+v", c)
	}
	wl := m.Ledger().Link(m.downlink("off-1"))
	if a, ok := wl.Alloc(id); !ok || a.Min != 64e3 {
		t.Fatalf("ledger state after rollback: %+v", a)
	}
}

func TestRenegotiateUnknownConn(t *testing.T) {
	_, m := newCampus(t, Config{})
	if err := m.Renegotiate("ghost", qos.Bounds{Min: 1, Max: 2}); !errors.Is(err, errUnknownConn) {
		t.Fatalf("err = %v", err)
	}
}

func TestConflictResolutionSqueezesAdaptedConnections(t *testing.T) {
	// §5.2 case (b): ongoing static connections have absorbed all the
	// excess; a new connection arrives that fits within the b_min head
	// room only after the others are squeezed back. Admission must
	// accept it, and adaptation must re-settle everyone within capacity.
	sim, m := newCampus(t, Config{Tth: 50, poolMin: 1e-9, poolMax: 1e-9})
	for _, who := range []string{"a", "b"} {
		if err := m.PlacePortable(who, "off-1"); err != nil {
			t.Fatal(err)
		}
		if _, err := m.OpenConnection(who, req(100e3, 1.6e6)); err != nil {
			t.Fatal(err)
		}
	}
	if err := sim.RunUntil(300); err != nil {
		t.Fatal(err)
	}
	wl := m.Ledger().Link(m.downlink("off-1"))
	if wl.SumCur() < 1.5e6 {
		t.Fatalf("excess not absorbed: %v", wl.SumCur())
	}
	// Newcomer needs 400k minimum — only available by squeezing.
	if err := m.PlacePortable("c", "off-1"); err != nil {
		t.Fatal(err)
	}
	if _, err := m.OpenConnection("c", req(400e3, 800e3)); err != nil {
		t.Fatalf("conflict resolution failed to admit: %v", err)
	}
	if err := sim.RunUntil(600); err != nil {
		t.Fatal(err)
	}
	// Everyone fits again and no one is below b_min.
	if got := wl.SumCur(); got > wl.Capacity+1e-6 {
		t.Fatalf("capacity exceeded after resettle: %v > %v", got, wl.Capacity)
	}
	for _, id := range wl.Conns() {
		a, _ := wl.Alloc(id)
		if a.Cur < a.Min-1e-9 {
			t.Fatalf("connection %s squeezed below b_min: %v < %v", id, a.Cur, a.Min)
		}
	}
}

func TestAttachChannelDrivesAdaptation(t *testing.T) {
	sim, m := newCampus(t, Config{Tth: 50})
	if err := m.PlacePortable("alice", "off-1"); err != nil {
		t.Fatal(err)
	}
	id, err := m.OpenConnection("alice", req(100e3, 1.6e6))
	if err != nil {
		t.Fatal(err)
	}
	if err := m.AttachChannel("off-1", []float64{1.6e6, 800e3, 400e3}, 120); err != nil {
		t.Fatal(err)
	}
	cp := m.channels["off-1"]
	if err := m.AttachChannel("nowhere", []float64{1e6}, 10); err == nil {
		t.Fatal("unknown cell accepted")
	}
	if err := sim.RunUntil(2000); err != nil {
		t.Fatal(err)
	}
	wl := m.Ledger().Link(m.downlink("off-1"))
	// Ledger capacity tracks the process.
	if math.Abs(wl.Capacity-cp.capacity()) > 1e-9 {
		t.Fatalf("ledger capacity %v != channel %v", wl.Capacity, cp.capacity())
	}
	// The connection was adapted and never sits above the current
	// capacity by more than the in-flight protocol slack.
	c := m.Connection(id)
	if c.Bandwidth < 100e3 {
		t.Fatalf("allocation below b_min: %v", c.Bandwidth)
	}
	if m.Met.Counter.Get(CtrAdaptUpdates) < 2 {
		t.Fatalf("channel variation produced %d adaptation updates", m.Met.Counter.Get(CtrAdaptUpdates))
	}
}

func TestLearnClassesFromHandoffs(t *testing.T) {
	// Build a universe with an unknown cell that behaves like a corridor.
	env, err := topology.EnvironmentFromJSON(strings.NewReader(`{
	  "cells": [{"id": "x"}, {"id": "l", "class": "corridor"}, {"id": "r", "class": "corridor"}],
	  "edges": [["l", "x"], ["x", "r"]]
	}`))
	if err != nil {
		t.Fatal(err)
	}
	m, err := newManagerForTest(env)
	if err != nil {
		t.Fatal(err)
	}
	// Many distinct portables pass straight through x.
	for i := 0; i < 80; i++ {
		pid := fmt.Sprintf("p%d", i)
		from, to := topology.CellID("l"), topology.CellID("r")
		if i%2 == 1 {
			from, to = "r", "l"
		}
		if err := m.PlacePortable(pid, from); err != nil {
			t.Fatal(err)
		}
		if err := m.HandoffPortable(pid, "x"); err != nil {
			t.Fatal(err)
		}
		if err := m.HandoffPortable(pid, to); err != nil {
			t.Fatal(err)
		}
		m.RemovePortable(pid)
	}
	changed := m.LearnClasses()
	if len(changed) != 1 || changed[0] != "x" {
		t.Fatalf("changed = %v, want [x]", changed)
	}
	if got := env.Universe.Cell("x").Class; got != topology.ClassCorridor {
		t.Fatalf("learned class = %v, want corridor", got)
	}
	// Second run: nothing left to learn.
	if changed := m.LearnClasses(); len(changed) != 0 {
		t.Fatalf("relearn changed %v", changed)
	}
}

func newManagerForTest(env *topology.Environment) (*Manager, error) {
	return NewManager(des.New(), env, Config{})
}

func TestHandoffLatencySplit(t *testing.T) {
	_, m := newCampus(t, Config{})
	// dave (occupant of off-3) in cor-e1: prediction reserves off-3.
	if err := m.PlacePortable("dave", "cor-e1"); err != nil {
		t.Fatal(err)
	}
	if _, err := m.OpenConnection("dave", req(16e3, 64e3)); err != nil {
		t.Fatal(err)
	}
	// Predicted move into off-3.
	if err := m.HandoffPortable("dave", "off-3"); err != nil {
		t.Fatal(err)
	}
	if m.Latency.Predicted.N() != 1 {
		t.Fatalf("predicted latency samples = %d", m.Latency.Predicted.N())
	}
	// Unpredicted move back (no reservation waits in cor-e1 for this hop
	// unless prediction placed one; dave's prediction from off-3 is
	// no-reserve because he is a regular occupant at home).
	if err := m.HandoffPortable("dave", "cor-e1"); err != nil {
		t.Fatal(err)
	}
	if m.Latency.Unpredicted.N() != 1 {
		t.Fatalf("unpredicted latency samples = %d", m.Latency.Unpredicted.N())
	}
	// End-to-end signaling must cost more than the local exchange.
	if m.Latency.Unpredicted.Mean() <= m.Latency.Predicted.Mean() {
		t.Fatalf("unpredicted (%v) not slower than predicted (%v)",
			m.Latency.Unpredicted.Mean(), m.Latency.Predicted.Mean())
	}
}

func TestBestEffortConnections(t *testing.T) {
	_, m := newCampus(t, Config{Mode: ModeNone})
	if err := m.PlacePortable("be", "cor-w1"); err != nil {
		t.Fatal(err)
	}
	// Fill the cell completely with guaranteed traffic.
	for i := 0; i < 15; i++ {
		pid := fmt.Sprintf("g%d", i)
		if err := m.PlacePortable(pid, "cor-w1"); err != nil {
			t.Fatal(err)
		}
		if _, err := m.OpenConnection(pid, req(100e3, 100e3)); err != nil {
			t.Fatal(err)
		}
	}
	// Best-effort opens anyway.
	id, err := m.OpenConnection("be", qos.Request{})
	if err != nil {
		t.Fatalf("best-effort rejected: %v", err)
	}
	c := m.Connection(id)
	if c.Bandwidth != 0 {
		t.Fatalf("best-effort has a reservation: %v", c.Bandwidth)
	}
	// No ledger allocation anywhere.
	for _, ls := range m.Ledger().Links() {
		if _, ok := ls.Alloc(id); ok {
			t.Fatalf("best-effort allocated on %s", ls.Link.ID)
		}
	}
	// Handoff into the saturated cell never drops it.
	if err := m.HandoffPortable("be", "cor-w2"); err != nil {
		t.Fatal(err)
	}
	if err := m.HandoffPortable("be", "cor-w1"); err != nil {
		t.Fatal(err)
	}
	if m.Met.Counter.Get(CtrHandoffDropped) != 0 {
		t.Fatal("best-effort connection dropped")
	}
	if got := m.Connection(id).Route.Dest(); got != topology.AirNode("cor-w1") {
		t.Fatalf("route not updated: %s", got)
	}
	if err := m.CloseConnection(id); err != nil {
		t.Fatal(err)
	}
}

func TestOpenConnectionAsync(t *testing.T) {
	sim, m := newCampus(t, Config{})
	if err := m.PlacePortable("alice", "off-1"); err != nil {
		t.Fatal(err)
	}
	var gotID string
	var gotErr error
	doneAt := -1.0
	if err := m.OpenConnectionAsync("alice", req(64e3, 128e3), func(id string, err error) {
		gotID, gotErr = id, err
		doneAt = sim.Now()
	}); err != nil {
		t.Fatal(err)
	}
	if gotID != "" {
		t.Fatal("callback fired synchronously")
	}
	if err := sim.RunUntil(1); err != nil {
		t.Fatal(err)
	}
	if gotErr != nil {
		t.Fatalf("setup failed: %v", gotErr)
	}
	if doneAt <= 0 {
		t.Fatal("no setup latency charged")
	}
	c := m.Connection(gotID)
	if c == nil || c.Bandwidth < 64e3 {
		t.Fatalf("connection = %+v", c)
	}
	if err := m.OpenConnectionAsync("ghost", req(1, 2), func(string, error) {}); !errors.Is(err, errUnknownPortable) {
		t.Fatalf("unknown portable err = %v", err)
	}
}

func TestOpenConnectionAsyncAbortsIfPortableMoves(t *testing.T) {
	sim, m := newCampus(t, Config{})
	if err := m.PlacePortable("bob", "off-2"); err != nil {
		t.Fatal(err)
	}
	var gotErr error
	called := false
	if err := m.OpenConnectionAsync("bob", req(64e3, 128e3), func(id string, err error) {
		called = true
		gotErr = err
	}); err != nil {
		t.Fatal(err)
	}
	// Move bob before the signaling round trip (~ms) completes.
	sim.At(1e-4, func() { _ = m.HandoffPortable("bob", "cor-w1") })
	if err := sim.RunUntil(1); err != nil {
		t.Fatal(err)
	}
	if !called {
		t.Fatal("callback never fired")
	}
	if !errors.Is(gotErr, ErrRejected) {
		t.Fatalf("err = %v, want rejection after mid-setup move", gotErr)
	}
	// Nothing leaked on the original route's wireless hop.
	if got := len(m.Ledger().Link(m.downlink("off-2")).Conns()); got != 0 {
		t.Fatalf("allocations leaked: %d", got)
	}
}

func TestOpenConnectionAsyncConcurrentRace(t *testing.T) {
	sim, m := newCampus(t, Config{})
	for _, who := range []string{"a", "b"} {
		if err := m.PlacePortable(who, "off-1"); err != nil {
			t.Fatal(err)
		}
	}
	// Two concurrent 1 Mb/s setups on a 1.6 Mb/s cell: exactly one wins.
	wins, losses := 0, 0
	for _, who := range []string{"a", "b"} {
		if err := m.OpenConnectionAsync(who, req(1e6, 1e6), func(id string, err error) {
			if err == nil {
				wins++
			} else {
				losses++
			}
		}); err != nil {
			t.Fatal(err)
		}
	}
	if err := sim.RunUntil(1); err != nil {
		t.Fatal(err)
	}
	if wins != 1 || losses != 1 {
		t.Fatalf("wins=%d losses=%d, want 1/1", wins, losses)
	}
}

func TestLoungePoliciesDriveReservations(t *testing.T) {
	// Walk a steady stream of portables through the campus cafeteria so
	// its slotted history ramps; the periodic policy evaluation must ask
	// the neighbors to advance-reserve for the forecast handoffs.
	sim, m := newCampus(t, Config{})
	n := 0
	// Every 15 s a new visitor enters the cafeteria from cor-e1 and
	// leaves toward lounge 40 s later.
	sim.Every(15, func() {
		id := fmt.Sprintf("v%d", n)
		n++
		if err := m.PlacePortable(id, "cor-e1"); err != nil {
			return
		}
		if err := m.HandoffPortable(id, "cafe"); err != nil {
			return
		}
		sim.After(40, func() {
			_ = m.HandoffPortable(id, "lounge")
			m.RemovePortable(id)
		})
	})
	if err := sim.RunUntil(600); err != nil {
		t.Fatal(err)
	}
	// The cafeteria's least-squares forecast should have placed policy
	// reservations in at least one neighbor's wireless link.
	total := 0.0
	for _, nid := range m.Env.Universe.Cell("cafe").Neighbors() {
		total += m.Ledger().Link(m.downlink(nid)).AdvanceReserved
	}
	if total <= 0 {
		t.Fatal("cafeteria policy placed no neighbor reservations")
	}
	// And because the cafeteria adjoins a default lounge, it must also
	// self-reserve for predicted arrivals.
	if got := m.Ledger().Link(m.downlink("cafe")).AdvanceReserved; got <= 0 {
		t.Fatalf("cafeteria self-reservation = %v", got)
	}
	// The default lounge, having a cafeteria neighbor but no default
	// neighbor, forecasts departures one-step.
	// (Its neighbor reservations appear once it has departures.)
}

// TestLoungePlanAmountIsOrderStable pins the published policy-reservation
// amount to the ID-ordered sum Self + Σ Neighbor[nid]. The plan's
// neighbor table is a map, and the three non-dyadic amounts below add to
// different last ulps in different orders, so a sum taken in map
// iteration order would publish more than one value over these rounds.
func TestLoungePlanAmountIsOrderStable(t *testing.T) {
	_, m := newCampus(t, Config{})
	cell := m.Env.Universe.Cell("cor-w1")
	nbrs := cell.Neighbors()
	if len(nbrs) != 3 {
		t.Fatalf("cor-w1 has %d neighbors, want 3", len(nbrs))
	}
	amounts := []float64{16e3 / 3, 16e3 / 7, 16e3 / 11}
	self := 16e3 / 13
	want, reversed := self, self
	for i := range nbrs {
		want += amounts[i]
		reversed += amounts[len(nbrs)-1-i]
	}
	if want == reversed {
		t.Fatal("amounts are not order-sensitive; the test would prove nothing")
	}
	var got []float64
	m.Bus.Subscribe(func(r eventbus.Record) {
		got = append(got, r.Event.(eventbus.PolicyReservation).Amount)
	}, eventbus.PolicyReservation{}.Kind())
	const rounds = 64
	for round := 0; round < rounds; round++ {
		plan := reserve.LoungePlan{Neighbor: map[topology.CellID]float64{}, Self: self}
		for i, nid := range nbrs {
			plan.Neighbor[nid] = amounts[i]
		}
		m.applyLoungePlan(m.geo(cell.ID), plan)
	}
	if len(got) != rounds {
		t.Fatalf("published %d policy reservations, want %d", len(got), rounds)
	}
	for round, amount := range got {
		if amount != want {
			t.Fatalf("round %d published %.17g, want the ID-ordered sum %.17g", round, amount, want)
		}
	}
}

// TestRefreshAdvanceDemandIsOrderStable pins a mobile portable's advance
// reservation to the ID-ordered sum of its connections' b_min. The three
// non-dyadic minima below add to different last ulps in different
// orders, so a sum taken in map iteration order would publish more than
// one amount over these rounds.
func TestRefreshAdvanceDemandIsOrderStable(t *testing.T) {
	_, m := newCampus(t, Config{})
	if err := m.PlacePortable("dave", "cor-e1"); err != nil {
		t.Fatal(err)
	}
	for _, bMin := range []float64{16e3 / 3, 16e3 / 7, 16e3 / 11} {
		r := req(bMin, 64e3)
		r.Delay, r.Jitter = 100, 100 // a few kbit/s cannot meet req's 5 s bounds
		if _, err := m.OpenConnection("dave", r); err != nil {
			t.Fatal(err)
		}
	}
	p := m.Portable("dave")
	conns := p.conns
	if len(conns) != 3 {
		t.Fatalf("dave holds %d connections, want 3", len(conns))
	}
	want, reversed := 0.0, 0.0
	for i := range conns {
		want += conns[i].Req.Bandwidth.Min
		reversed += conns[len(conns)-1-i].Req.Bandwidth.Min
	}
	if want == reversed {
		t.Fatal("minima are not order-sensitive; the test would prove nothing")
	}
	var got []float64
	m.Bus.Subscribe(func(r eventbus.Record) {
		got = append(got, r.Event.(eventbus.AdvanceReservation).Amount)
	}, eventbus.AdvanceReservation{}.Kind())
	const rounds = 64
	for round := 0; round < rounds; round++ {
		m.refreshAdvance(p)
	}
	if len(got) < rounds {
		t.Fatalf("published %d advance reservations over %d rounds", len(got), rounds)
	}
	for i, amount := range got {
		if amount != want {
			t.Fatalf("reservation %d published %.17g, want the ID-ordered sum %.17g", i, amount, want)
		}
	}
}

func TestMulticastReservationLifecycle(t *testing.T) {
	_, m := newCampus(t, Config{})
	if err := m.PlacePortable("bob", "off-2"); err != nil {
		t.Fatal(err)
	}
	id, err := m.OpenConnection("bob", req(16e3, 64e3))
	if err != nil {
		t.Fatal(err)
	}
	c := m.Connection(id)
	if c.mcast == nil || len(c.mcast.tree.Branches) == 0 {
		t.Fatal("no multicast tree")
	}
	// Branch reservations exist on the wired links toward each neighbor
	// base station.
	found := 0
	for dst, route := range c.mcast.tree.Branches {
		mcID := id + "@mc:" + string(dst)
		for _, l := range route.Links {
			if _, ok := m.Ledger().Link(l.ID).Alloc(mcID); ok {
				found++
				break
			}
		}
	}
	if found == 0 {
		t.Fatal("no multicast branch reservations committed")
	}
	// Handoff rebuilds the tree for the new neighborhood.
	oldBranches := c.mcast.tree.Branches
	if err := m.HandoffPortable("bob", "cor-w1"); err != nil {
		t.Fatal(err)
	}
	c = m.Connection(id)
	if c.mcast == nil {
		t.Fatal("multicast tree lost on handoff")
	}
	// Old branch reservations are gone.
	for dst, route := range oldBranches {
		mcID := id + "@mc:" + string(dst)
		for _, l := range route.Links {
			if _, ok := m.Ledger().Link(l.ID).Alloc(mcID); ok {
				t.Fatalf("stale multicast reservation for %s on %s", mcID, l.ID)
			}
		}
	}
	// Close releases everything.
	if err := m.CloseConnection(id); err != nil {
		t.Fatal(err)
	}
	for _, ls := range m.Ledger().Links() {
		for _, cid := range ls.Conns() {
			t.Fatalf("allocation %s survives close on %s", cid, ls.Link.ID)
		}
	}
}

func TestZoneCrossingMigratesProfile(t *testing.T) {
	_, m := newCampus(t, Config{})
	if err := m.PlacePortable("eve", "cor-w2"); err != nil {
		t.Fatal(err)
	}
	eve := m.portables["eve"].num
	w2, e1 := m.Env.Universe.Cell("cor-w2").Index, m.Env.Universe.Cell("cor-e1").Index
	// holds reports whether zone's server predicts eve's move from
	// from to want by her own profile, as only her profile's holder can.
	holds := func(zone string, from, want int) bool {
		next, ok := m.Pred.Servers[zone].PredictByPortable(eve, -1, from)
		return ok && next == want
	}
	// West -> east crossing.
	if err := m.HandoffPortable("eve", "cor-e1"); err != nil {
		t.Fatal(err)
	}
	if !holds("east", w2, e1) || holds("west", w2, e1) {
		t.Fatal("profile did not migrate to the east zone server")
	}
	// And back again.
	if err := m.HandoffPortable("eve", "cor-w2"); err != nil {
		t.Fatal(err)
	}
	if !holds("west", e1, w2) || holds("east", e1, w2) {
		t.Fatal("profile did not migrate back to the west zone server")
	}
}

func TestWatchBandwidth(t *testing.T) {
	sim, m := newCampus(t, Config{Tth: 50})
	if err := m.PlacePortable("alice", "off-1"); err != nil {
		t.Fatal(err)
	}
	id, err := m.OpenConnection("alice", req(100e3, 800e3))
	if err != nil {
		t.Fatal(err)
	}
	if err := m.WatchBandwidth("nope", func(float64) {}); !errors.Is(err, errUnknownConn) {
		t.Fatalf("err = %v", err)
	}
	var seen []float64
	if err := m.WatchBandwidth(id, func(bw float64) { seen = append(seen, bw) }); err != nil {
		t.Fatal(err)
	}
	if err := sim.RunUntil(300); err != nil {
		t.Fatal(err)
	}
	if len(seen) == 0 {
		t.Fatal("watcher never fired")
	}
	if last := seen[len(seen)-1]; last <= 100e3 {
		t.Fatalf("last watched bandwidth = %v", last)
	}
	// Removing the watcher stops notifications.
	if err := m.WatchBandwidth(id, nil); err != nil {
		t.Fatal(err)
	}
	before := len(seen)
	wl := m.downlink("off-1")
	_ = m.Adpt.CapacityChanged(wl, 800e3)
	if err := sim.RunUntil(600); err != nil {
		t.Fatal(err)
	}
	if len(seen) != before {
		t.Fatal("watcher fired after removal")
	}
}

// TestUnknownAllocatorRejected: a misspelt Config.Allocator is refused.
func TestUnknownAllocatorRejected(t *testing.T) {
	env, err := topology.BuildCampus()
	if err != nil {
		t.Fatal(err)
	}
	_, err = NewManager(des.New(), env, Config{Allocator: "nope"})
	if err == nil || !strings.Contains(err.Error(), `unknown allocator "nope"`) {
		t.Fatalf("err = %v, want unknown allocator", err)
	}
}
