package armnet_test

import (
	"errors"
	"testing"

	"armnet"
	"armnet/internal/core"
)

func demoRequest() armnet.Request {
	return armnet.Request{
		Bandwidth: armnet.Bounds{Min: 64e3, Max: 256e3},
		Delay:     2, Jitter: 2, Loss: 0.02,
		Traffic: armnet.TrafficSpec{Sigma: 16e3, Rho: 64e3},
	}
}

func TestQuickstartFlow(t *testing.T) {
	env, err := armnet.BuildCampus()
	if err != nil {
		t.Fatal(err)
	}
	net, err := armnet.NewNetwork(env, armnet.Config{Seed: 42, Tth: 60})
	if err != nil {
		t.Fatal(err)
	}
	if err := net.PlacePortable("alice", "off-1"); err != nil {
		t.Fatal(err)
	}
	id, err := net.OpenConnection("alice", demoRequest())
	if err != nil {
		t.Fatal(err)
	}
	c := net.Connection(id)
	if c == nil || c.Bandwidth < 64e3 {
		t.Fatalf("connection = %+v", c)
	}
	// Let alice become static; adaptation should lift her toward b_max.
	if err := net.RunUntil(300); err != nil {
		t.Fatal(err)
	}
	if net.Portable("alice").Mobility != armnet.Static {
		t.Fatal("alice not static after T_th")
	}
	if got := net.Connection(id).Bandwidth; got <= 64e3 {
		t.Fatalf("no upgrade: %v", got)
	}
	// Move: back to mobile, connection survives, drops to b_min.
	if err := net.HandoffPortable("alice", "cor-w1"); err != nil {
		t.Fatal(err)
	}
	if net.Portable("alice").Mobility != armnet.Mobile {
		t.Fatal("alice not mobile after handoff")
	}
	m := net.Metrics()
	if m.Counter.Get(armnet.CtrHandoffOK) != 1 {
		t.Fatalf("handoff counter = %d", m.Counter.Get(armnet.CtrHandoffOK))
	}
	if err := net.CloseConnection(id); err != nil {
		t.Fatal(err)
	}
}

func TestRejectedConnectionsWrapSentinel(t *testing.T) {
	env, err := armnet.BuildCampus()
	if err != nil {
		t.Fatal(err)
	}
	net, err := armnet.NewNetwork(env, armnet.Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := net.PlacePortable("greedy", "off-1"); err != nil {
		t.Fatal(err)
	}
	// 1.6 Mb/s cell: the second 1 Mb/s connection cannot fit.
	big := armnet.Request{
		Bandwidth: armnet.Bounds{Min: 1e6, Max: 1e6},
		Delay:     5, Jitter: 5, Loss: 0.05,
		Traffic: armnet.TrafficSpec{Sigma: 1e5, Rho: 1e6},
	}
	if _, err := net.OpenConnection("greedy", big); err != nil {
		t.Fatal(err)
	}
	_, err = net.OpenConnection("greedy", big)
	if !errors.Is(err, core.ErrRejected) {
		t.Fatalf("err = %v, want ErrRejected", err)
	}
}

func TestScheduleDrivesScenario(t *testing.T) {
	env, err := armnet.BuildCampus()
	if err != nil {
		t.Fatal(err)
	}
	net, err := armnet.NewNetwork(env, armnet.Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := net.PlacePortable("bob", "off-2"); err != nil {
		t.Fatal(err)
	}
	net.Schedule(10, func() { _ = net.HandoffPortable("bob", "cor-w1") })
	net.Schedule(20, func() { _ = net.HandoffPortable("bob", "cor-w2") })
	if err := net.RunUntil(30); err != nil {
		t.Fatal(err)
	}
	if got := net.Portable("bob").Cell; got != "cor-w2" {
		t.Fatalf("bob at %s, want cor-w2", got)
	}
	if net.Now() != 30 {
		t.Fatalf("Now = %v", net.Now())
	}
}

func TestMeetingThroughFacade(t *testing.T) {
	env, err := armnet.BuildCampus()
	if err != nil {
		t.Fatal(err)
	}
	net, err := armnet.NewNetwork(env, armnet.Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := net.RegisterMeeting("meet", armnet.Meeting{Start: 1200, End: 2400, Attendees: 8}); err != nil {
		t.Fatal(err)
	}
	if err := net.RegisterMeeting("off-1", armnet.Meeting{Start: 1200, End: 2400, Attendees: 8}); err == nil {
		t.Fatal("meeting in office accepted")
	}
	if err := net.RunUntil(700); err != nil {
		t.Fatal(err)
	}
	mgr := net.Manager()
	wl := mgr.Ledger().Links()
	found := false
	for _, ls := range wl {
		if ls.AdvanceReserved > 0 {
			found = true
		}
	}
	if !found {
		t.Fatal("no advance reservation appeared during the lead-in window")
	}
}

func TestExperimentsAccessibleFromFacade(t *testing.T) {
	if _, err := armnet.RunTable2(armnet.Table2Config{}); err != nil {
		t.Fatal(err)
	}
	r, err := armnet.RunFigure6(armnet.Figure6Config{Seed: 1, T: 0.05, PQoS: 0.1, Horizon: 30})
	if err != nil {
		t.Fatal(err)
	}
	if r.NewArrivals == 0 {
		t.Fatal("no arrivals in facade figure-6 run")
	}
	if _, err := armnet.RunFigure2(armnet.Figure2Config{Seed: 1}); err != nil {
		t.Fatal(err)
	}
}

func TestFacadeExtensions(t *testing.T) {
	env, err := armnet.BuildCampus()
	if err != nil {
		t.Fatal(err)
	}
	net, err := armnet.NewNetwork(env, armnet.Config{Seed: 2, Tth: 60})
	if err != nil {
		t.Fatal(err)
	}
	if err := net.PlacePortable("a", "off-1"); err != nil {
		t.Fatal(err)
	}
	id, err := net.OpenConnection("a", demoRequest())
	if err != nil {
		t.Fatal(err)
	}
	// Watcher fires on adaptation.
	fired := 0
	if err := net.WatchBandwidth(id, func(float64) { fired++ }); err != nil {
		t.Fatal(err)
	}
	// Channel variation drives adaptation.
	if _, err := net.AttachChannel("off-1", []float64{1.6e6, 800e3}, 50); err != nil {
		t.Fatal(err)
	}
	if err := net.RunUntil(600); err != nil {
		t.Fatal(err)
	}
	if fired == 0 {
		t.Fatal("bandwidth watcher never fired")
	}
	// Renegotiation through the facade.
	if err := net.Renegotiate(id, armnet.Bounds{Min: 32e3, Max: 128e3}); err != nil {
		t.Fatal(err)
	}
	if got := net.Connection(id).Req.Bandwidth.Min; got != 32e3 {
		t.Fatalf("renegotiated min = %v", got)
	}
	// LearnClasses is a no-op on a fully labeled campus.
	if changed := net.LearnClasses(); len(changed) != 0 {
		t.Fatalf("learned on labeled campus: %v", changed)
	}
	// Async setup through the facade.
	done := false
	if err := net.OpenConnectionAsync("a", demoRequest(), func(string, error) { done = true }); err != nil {
		t.Fatal(err)
	}
	if err := net.RunUntil(601); err != nil {
		t.Fatal(err)
	}
	if !done {
		t.Fatal("async setup never completed")
	}
}

func TestLedgerInvariantsAfterBusyRun(t *testing.T) {
	// After a busy integrated run, no link's guaranteed minimums may
	// exceed its capacity and no allocation may sit below its minimum.
	r, _, err := armnet.RunCampus(armnet.CampusConfig{Seed: 8, Portables: 30, Duration: 1500, Dwell: 90}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if r.Handoffs == 0 {
		t.Fatal("no handoffs")
	}
	// Re-run with direct access to inspect the ledger.
	env, err := armnet.BuildCampus()
	if err != nil {
		t.Fatal(err)
	}
	net, err := armnet.NewNetwork(env, armnet.Config{Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		id := string(rune('a' + i))
		if err := net.PlacePortable(id, "cor-w1"); err != nil {
			t.Fatal(err)
		}
		_, _ = net.OpenConnection(id, demoRequest())
	}
	if err := net.RunUntil(900); err != nil {
		t.Fatal(err)
	}
	for _, ls := range net.Manager().Ledger().Links() {
		if ls.SumMin() > ls.Capacity+1e-6 {
			t.Fatalf("link %s overcommitted on minimums: %v > %v", ls.Link.ID, ls.SumMin(), ls.Capacity)
		}
		for _, id := range ls.Conns() {
			a, _ := ls.Alloc(id)
			if a.Cur < a.Min-1e-9 {
				t.Fatalf("allocation below minimum on %s: %v < %v", ls.Link.ID, a.Cur, a.Min)
			}
		}
	}
}
