package core

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"testing"

	"armnet/internal/des"
	"armnet/internal/qos"
	"armnet/internal/reserve"
	"armnet/internal/topology"
)

func req(min, max float64) qos.Request {
	return qos.Request{
		Bandwidth: qos.Bounds{Min: min, Max: max},
		Delay:     5, Jitter: 5, Loss: 0.05,
		Traffic: qos.TrafficSpec{Sigma: min / 4, Rho: min},
	}
}

func newCampus(t *testing.T, cfg Config) (*des.Simulator, *Manager) {
	t.Helper()
	env, err := topology.BuildCampus()
	if err != nil {
		t.Fatal(err)
	}
	sim := des.New()
	m, err := NewManager(sim, env, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return sim, m
}

func TestPlaceOpenClose(t *testing.T) {
	sim, m := newCampus(t, Config{})
	if err := m.PlacePortable("alice", "off-1"); err != nil {
		t.Fatal(err)
	}
	if err := m.PlacePortable("alice", "off-1"); err == nil {
		t.Fatal("double placement accepted")
	}
	if err := m.PlacePortable("bob", "nowhere"); !errors.Is(err, errUnknownCell) {
		t.Fatalf("unknown cell error = %v", err)
	}
	id, err := m.OpenConnection("alice", req(16e3, 64e3))
	if err != nil {
		t.Fatal(err)
	}
	c := m.Connection(id)
	if c == nil || c.Portable != "alice" {
		t.Fatalf("connection not tracked: %+v", c)
	}
	if c.Bandwidth < 16e3 {
		t.Fatalf("bandwidth = %v", c.Bandwidth)
	}
	if c.mcast == nil {
		t.Fatal("multicast tree not set up")
	}
	// Ledger holds the wireless allocation.
	wl := m.Ledger().Link(m.downlink("off-1"))
	if _, ok := wl.Alloc(id); !ok {
		t.Fatal("no wireless allocation")
	}
	if err := m.CloseConnection(id); err != nil {
		t.Fatal(err)
	}
	if _, ok := wl.Alloc(id); ok {
		t.Fatal("allocation survives close")
	}
	if err := m.CloseConnection(id); !errors.Is(err, errUnknownConn) {
		t.Fatalf("double close error = %v", err)
	}
	_ = sim
}

// TestMalformedRequestRefusedBeforeCounting opens inverted and NaN
// bandwidth bounds through both opens: each is refused with a qos error,
// books nothing, and leaves new-requested == new-admitted + new-blocked.
func TestMalformedRequestRefusedBeforeCounting(t *testing.T) {
	sim, m := newCampus(t, Config{})
	if err := m.PlacePortable("x", "off-1"); err != nil {
		t.Fatal(err)
	}
	for _, r := range []qos.Request{req(200e3, 100e3), req(math.NaN(), 64e3), req(16e3, math.NaN())} {
		if _, err := m.OpenConnection("x", r); !errors.Is(err, qos.ErrBandwidthBounds) {
			t.Errorf("OpenConnection(%v) = %v, want ErrBandwidthBounds", r.Bandwidth, err)
		}
		err := m.OpenConnectionAsync("x", r, func(string, error) { t.Error("completion ran for a refused request") })
		if !errors.Is(err, qos.ErrBandwidthBounds) {
			t.Errorf("OpenConnectionAsync(%v) = %v, want ErrBandwidthBounds", r.Bandwidth, err)
		}
	}
	if err := sim.RunUntil(10); err != nil {
		t.Fatal(err)
	}
	c := m.Met.Counter
	if asked, adm, blk := c.Get(CtrNewRequested), c.Get(CtrNewAdmitted), c.Get(CtrNewBlocked); asked != adm+blk {
		t.Fatalf("new-requested %d != new-admitted %d + new-blocked %d", asked, adm, blk)
	}
	if n := len(m.ConnIDs()); n != 0 {
		t.Fatalf("%d connections booked from malformed requests", n)
	}
}

func TestOpenConnectionUnknownPortable(t *testing.T) {
	_, m := newCampus(t, Config{})
	if _, err := m.OpenConnection("ghost", req(16e3, 64e3)); !errors.Is(err, errUnknownPortable) {
		t.Fatalf("err = %v", err)
	}
}

func TestMobilePortableGetsAdvanceReservation(t *testing.T) {
	_, m := newCampus(t, Config{})
	// dave is a regular occupant of off-3; placed in the corridor the
	// level-2 office rule nominates off-3.
	if err := m.PlacePortable("dave", "cor-e1"); err != nil {
		t.Fatal(err)
	}
	if _, err := m.OpenConnection("dave", req(16e3, 64e3)); err != nil {
		t.Fatal(err)
	}
	p := m.Portable("dave")
	if !slices.Contains(p.reserved, m.geo("off-3")) || p.advance != 16e3 {
		t.Fatalf("no 16k advance reservation in off-3: %d cells at %v", len(p.reserved), p.advance)
	}
	if got := m.Ledger().Link(m.downlink("off-3")).AdvanceReserved; got != 16e3 {
		t.Fatalf("advance on off-3 = %v, want 16k", got)
	}
}

func TestBruteForceReservesEverywhere(t *testing.T) {
	_, m := newCampus(t, Config{Mode: ModeBruteForce})
	if err := m.PlacePortable("x", "cor-e1"); err != nil {
		t.Fatal(err)
	}
	if _, err := m.OpenConnection("x", req(16e3, 64e3)); err != nil {
		t.Fatal(err)
	}
	p := m.Portable("x")
	neighbors := m.Env.Universe.Cell("cor-e1").Neighbors()
	if len(p.reserved) != len(neighbors) {
		t.Fatalf("brute force reserved in %d cells, want %d", len(p.reserved), len(neighbors))
	}
}

func TestModeNoneReservesNothing(t *testing.T) {
	_, m := newCampus(t, Config{Mode: ModeNone})
	if err := m.PlacePortable("x", "cor-e1"); err != nil {
		t.Fatal(err)
	}
	if _, err := m.OpenConnection("x", req(16e3, 64e3)); err != nil {
		t.Fatal(err)
	}
	if n := len(m.Portable("x").reserved); n != 0 {
		t.Fatalf("mode none reserved in %d cells", n)
	}
}

func TestStaticTimerFlipsAndClearsReservations(t *testing.T) {
	sim, m := newCampus(t, Config{Tth: 100})
	if err := m.PlacePortable("dave", "cor-e1"); err != nil {
		t.Fatal(err)
	}
	if _, err := m.OpenConnection("dave", req(16e3, 64e3)); err != nil {
		t.Fatal(err)
	}
	if m.Portable("dave").Mobility != qos.Mobile {
		t.Fatal("fresh portable not mobile")
	}
	if err := sim.RunUntil(150); err != nil {
		t.Fatal(err)
	}
	p := m.Portable("dave")
	if p.Mobility != qos.Static {
		t.Fatal("portable did not become static after T_th")
	}
	if len(p.reserved) != 0 {
		t.Fatalf("static portable still holds advance reservations in %d cells", len(p.reserved))
	}
	if got := m.Ledger().Link(m.downlink("off-3")).AdvanceReserved; got != 0 {
		t.Fatalf("advance reservation not released: %v", got)
	}
}

func TestStaticConnectionUpgradesTowardMax(t *testing.T) {
	sim, m := newCampus(t, Config{Tth: 100})
	if err := m.PlacePortable("alice", "off-1"); err != nil {
		t.Fatal(err)
	}
	id, err := m.OpenConnection("alice", req(100e3, 800e3))
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.RunUntil(400); err != nil {
		t.Fatal(err)
	}
	c := m.Connection(id)
	if c.Bandwidth <= 100e3 {
		t.Fatalf("static connection stuck at %v, want adaptation toward b_max", c.Bandwidth)
	}
	if m.Met.Counter.Get(CtrAdaptUpdates) == 0 {
		t.Fatal("no adaptation updates recorded")
	}
}

func TestHandoffSucceedsAndReroutes(t *testing.T) {
	sim, m := newCampus(t, Config{})
	if err := m.PlacePortable("bob", "off-2"); err != nil {
		t.Fatal(err)
	}
	id, err := m.OpenConnection("bob", req(16e3, 64e3))
	if err != nil {
		t.Fatal(err)
	}
	oldRoute := m.Connection(id).Route.String()
	if err := m.HandoffPortable("bob", "cor-w1"); err != nil {
		t.Fatal(err)
	}
	p := m.Portable("bob")
	if p.Cell != "cor-w1" || p.Prev != "off-2" {
		t.Fatalf("position = %s prev %s", p.Cell, p.Prev)
	}
	newRoute := m.Connection(id).Route.String()
	if newRoute == oldRoute {
		t.Fatal("route did not change on handoff")
	}
	if m.Met.Counter.Get(CtrHandoffOK) != 1 || m.Met.Counter.Get(CtrHandoffDropped) != 0 {
		t.Fatalf("handoff counters wrong: %v", m.Met.Counter)
	}
	// Old wireless link released, new one allocated.
	if _, ok := m.Ledger().Link(m.downlink("off-2")).Alloc(id); ok {
		t.Fatal("old allocation not released")
	}
	if _, ok := m.Ledger().Link(m.downlink("cor-w1")).Alloc(id); !ok {
		t.Fatal("new allocation missing")
	}
	_ = sim
}

func TestHandoffToSameCellIsNoop(t *testing.T) {
	_, m := newCampus(t, Config{})
	if err := m.PlacePortable("bob", "off-2"); err != nil {
		t.Fatal(err)
	}
	if err := m.HandoffPortable("bob", "off-2"); err != nil {
		t.Fatal(err)
	}
	if m.Met.Counter.Get(CtrHandoffTried) != 0 {
		t.Fatal("self-handoff counted")
	}
}

func TestHandoffDropUnderOverload(t *testing.T) {
	_, m := newCampus(t, Config{Mode: ModeNone})
	// Fill cor-w1 nearly to the brim (the B_dyn pool keeps the last
	// slice away from new connections).
	for i := 0; i < 15; i++ {
		pid := fmt.Sprintf("p%d", i)
		if err := m.PlacePortable(pid, "cor-w1"); err != nil {
			t.Fatal(err)
		}
		if _, err := m.OpenConnection(pid, req(100e3, 100e3)); err != nil {
			t.Fatal(err)
		}
	}
	// A newcomer whose connection exceeds the leftover capacity hands
	// off into the loaded cell.
	if err := m.PlacePortable("mover", "off-1"); err != nil {
		t.Fatal(err)
	}
	if _, err := m.OpenConnection("mover", req(200e3, 200e3)); err != nil {
		t.Fatal(err)
	}
	if err := m.HandoffPortable("mover", "cor-w1"); err != nil {
		t.Fatal(err)
	}
	if m.Met.Counter.Get(CtrHandoffDropped) != 1 {
		t.Fatalf("drops = %d, want 1", m.Met.Counter.Get(CtrHandoffDropped))
	}
	if len(m.Met.Drops) != 1 {
		t.Fatalf("drop list = %v", m.Met.Drops)
	}
	// The portable moved anyway; its connection is gone.
	if got := len(m.Portable("mover").conns); got != 0 {
		t.Fatalf("mover still holds %d connections", got)
	}
}

func TestHandoffUpdatesProfiles(t *testing.T) {
	_, m := newCampus(t, Config{})
	if err := m.PlacePortable("bob", "off-2"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := m.HandoffPortable("bob", "cor-w1"); err != nil {
			t.Fatal(err)
		}
		if err := m.HandoffPortable("bob", "off-2"); err != nil {
			t.Fatal(err)
		}
	}
	srv := m.Pred.ServerFor("off-2")
	off2, corW1 := m.Env.Universe.Cell("off-2"), m.Env.Universe.Cell("cor-w1")
	next, ok := srv.PredictByPortable(m.Pred.Number("bob"), off2.Index, corW1.Index)
	if !ok || next != off2.Index {
		t.Fatalf("profile prediction = %v/%v, want off-2 (%d)", next, ok, off2.Index)
	}
}

func TestRegisterMeetingValidation(t *testing.T) {
	_, m := newCampus(t, Config{})
	if err := m.RegisterMeeting("off-1", reserve.Meeting{Start: 1000, End: 2000, Attendees: 5}); err == nil {
		t.Fatal("meeting in an office accepted")
	}
	if err := m.RegisterMeeting("meet", reserve.Meeting{Start: 1000, End: 2000, Attendees: 5}); err != nil {
		t.Fatal(err)
	}
}

func TestMeetingReservationLifecycle(t *testing.T) {
	sim, m := newCampus(t, Config{})
	mt := reserve.Meeting{Start: 1200, End: 2400, Attendees: 10}
	if err := m.RegisterMeeting("meet", mt); err != nil {
		t.Fatal(err)
	}
	wl := m.downlink("meet")
	// Before the lead-in: nothing reserved.
	if err := sim.RunUntil(500); err != nil {
		t.Fatal(err)
	}
	if got := m.Ledger().Link(wl).AdvanceReserved; got != 0 {
		t.Fatalf("early reservation = %v", got)
	}
	// Inside the lead-in window: 10 attendee slots at perUserBW.
	if err := sim.RunUntil(700); err != nil {
		t.Fatal(err)
	}
	if got := m.Ledger().Link(wl).AdvanceReserved; got != 10*perUserBW {
		t.Fatalf("lead-in reservation = %v, want %v", got, 10*perUserBW)
	}
	// Attendees arrive: the room reservation shrinks.
	for i := 0; i < 4; i++ {
		pid := fmt.Sprintf("att%d", i)
		if err := m.PlacePortable(pid, "cor-e1"); err != nil {
			t.Fatal(err)
		}
		if err := m.HandoffPortable(pid, "meet"); err != nil {
			t.Fatal(err)
		}
	}
	if err := sim.RunUntil(1300); err != nil {
		t.Fatal(err)
	}
	if got := m.Ledger().Link(wl).AdvanceReserved; got != 6*perUserBW {
		t.Fatalf("reservation after 4 arrivals = %v, want %v", got, 6*perUserBW)
	}
	// After the post-start release timer everything is freed.
	if err := sim.RunUntil(1600); err != nil {
		t.Fatal(err)
	}
	if got := m.Ledger().Link(wl).AdvanceReserved; got != 0 {
		t.Fatalf("reservation after start release = %v", got)
	}
	// Around the conclusion the neighbors hold the departure reservation.
	if err := sim.RunUntil(2350); err != nil {
		t.Fatal(err)
	}
	neighborTotal := 0.0
	for _, nid := range m.Env.Universe.Cell("meet").Neighbors() {
		neighborTotal += m.Ledger().Link(m.downlink(nid)).AdvanceReserved
	}
	if neighborTotal != 4*perUserBW {
		t.Fatalf("neighbor departure reservation = %v, want %v", neighborTotal, 4*perUserBW)
	}
	// Long after the end-release timer: all clear again.
	if err := sim.RunUntil(2400 + 1000); err != nil {
		t.Fatal(err)
	}
	neighborTotal = 0
	for _, nid := range m.Env.Universe.Cell("meet").Neighbors() {
		neighborTotal += m.Ledger().Link(m.downlink(nid)).AdvanceReserved
	}
	if neighborTotal != 0 {
		t.Fatalf("neighbor reservation not released: %v", neighborTotal)
	}
}

func TestRemovePortableCleansUp(t *testing.T) {
	_, m := newCampus(t, Config{})
	if err := m.PlacePortable("dave", "cor-e1"); err != nil {
		t.Fatal(err)
	}
	id, err := m.OpenConnection("dave", req(16e3, 64e3))
	if err != nil {
		t.Fatal(err)
	}
	m.RemovePortable("dave")
	if m.Connection(id) != nil {
		t.Fatal("connection survives portable removal")
	}
	if m.Portable("dave") != nil {
		t.Fatal("portable still tracked")
	}
	if got := m.Ledger().Link(m.downlink("off-3")).AdvanceReserved; got != 0 {
		t.Fatalf("advance reservation leaked: %v", got)
	}
	m.RemovePortable("dave") // idempotent
}

func TestPoolAdjustsWithStaticNeighbors(t *testing.T) {
	sim, m := newCampus(t, Config{Tth: 50})
	if err := m.PlacePortable("alice", "off-1"); err != nil {
		t.Fatal(err)
	}
	if _, err := m.OpenConnection("alice", req(200e3, 400e3)); err != nil {
		t.Fatal(err)
	}
	if err := sim.RunUntil(200); err != nil {
		t.Fatal(err)
	}
	// alice is static in off-1; neighbor cor-w1's pool must cover her
	// allocation (>= 200k/1.6M = 12.5%, above the 5% floor).
	m.adjustPools(m.geo("off-1"))
	frac := m.Ledger().Link(m.downlink("cor-w1")).PoolFraction
	if frac < 0.125-1e-9 {
		t.Fatalf("pool fraction = %v, want >= 12.5%%", frac)
	}
	if frac > 0.20 {
		t.Fatalf("pool fraction above ceiling: %v", frac)
	}
}

func TestMetricsAccounting(t *testing.T) {
	_, m := newCampus(t, Config{Mode: ModeNone})
	if err := m.PlacePortable("x", "off-1"); err != nil {
		t.Fatal(err)
	}
	if _, err := m.OpenConnection("x", req(16e3, 64e3)); err != nil {
		t.Fatal(err)
	}
	// Saturate to force a block: off-1 is 1.6 Mb/s.
	for i := 0; i < 200; i++ {
		_, _ = m.OpenConnection("x", req(64e3, 64e3))
	}
	c := m.Met.Counter
	if c.Get(CtrNewAdmitted)+c.Get(CtrNewBlocked) != c.Get(CtrNewRequested) {
		t.Fatalf("admission accounting inconsistent: %v admitted, %v blocked, %v requested",
			c.Get(CtrNewAdmitted), c.Get(CtrNewBlocked), c.Get(CtrNewRequested))
	}
	if c.Get(CtrNewBlocked) == 0 {
		t.Fatal("saturation produced no blocks")
	}
}
