package signal

import (
	"errors"
	"testing"

	"armnet/internal/admission"
	"armnet/internal/clock"
	"armnet/internal/des"
	"armnet/internal/eventbus"
	"armnet/internal/qos"
	"armnet/internal/topology"
)

// releaseRig is rig plus a bus wired to count every committed-reservation
// release the plane performs (the aborts that call Ledger.Release on a
// committed route).
func releaseRig(t *testing.T, opts Options) (*des.Simulator, *Plane, topology.Route, *int) {
	t.Helper()
	b := topology.NewBackbone()
	for _, id := range []topology.NodeID{"h", "s1", "air"} {
		if _, err := b.AddNode(topology.Node{ID: id}); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.AddDuplex(topology.Link{From: "h", To: "s1", Capacity: 10e6, PropDelay: 1e-3}); err != nil {
		t.Fatal(err)
	}
	if err := b.AddDuplex(topology.Link{From: "s1", To: "air", Capacity: 1.6e6, Wireless: true}); err != nil {
		t.Fatal(err)
	}
	route, err := b.ShortestPath("h", "air")
	if err != nil {
		t.Fatal(err)
	}
	sim := des.New()
	bus := eventbus.New(sim)
	releases := 0
	bus.Subscribe(func(r eventbus.Record) {
		ev := r.Event.(eventbus.SignalAbort)
		if ev.Reason == "commit-lost" || ev.Reason == "timeout-after-commit" {
			releases++
		}
	}, eventbus.KindSignalAbort)
	opts.Bus = bus
	lg := admission.NewLedger(b)
	return sim, NewPlaneOn(clock.Sim(sim), admission.NewController(lg), lg, opts), route, &releases
}

// TestCommitLossReleasesExactlyOnce: the commit confirmation is lost for
// good, so the destination tears the committed reservation down — and
// the session deadline, still armed at that point, must NOT release it a
// second time. A reservation admitted under the same ID afterwards has
// to survive, which is what double release would silently destroy.
func TestCommitLossReleasesExactlyOnce(t *testing.T) {
	n := 2 // route hops
	sim, p, route, releases := releaseRig(t, Options{
		MaxRetries: 1,
		retryBase:  0.01,
		Timeout:    5,
		Deliver: func(conn string, hop int, _ string, _ bool) (bool, float64) {
			return hop >= n, 0 // forward passes, every confirmation lost
		},
	})
	var got Result
	p.Setup(admission.Test{ConnID: "c1", Req: req(64e3), Route: route, Mobility: qos.Mobile},
		func(r Result) { got = r })
	if err := sim.RunUntil(1); err != nil {
		t.Fatal(err)
	}
	if !errors.Is(got.Err, errLost) {
		t.Fatalf("err = %v, want ErrLost", got.Err)
	}
	if *releases != 1 {
		t.Fatalf("committed reservation released %d times, want exactly 1", *releases)
	}
	if _, ok := p.Ledger.Link(route.Links[0].ID).Alloc("c1"); ok {
		t.Fatal("reservation survived the commit-loss teardown")
	}
	// Re-admit under the same ID, then run past the original deadline: a
	// stale timer releasing again would destroy this reservation.
	if res, err := p.Adm.Admit(admission.Test{ConnID: "c1", Req: req(64e3), Route: route, Mobility: qos.Mobile}); err != nil || !res.Admitted {
		t.Fatalf("re-admission failed: %+v %v", res, err)
	}
	if err := sim.RunUntil(10); err != nil {
		t.Fatal(err)
	}
	if *releases != 1 {
		t.Fatalf("stale release fired after the session finished (%d total)", *releases)
	}
	if _, ok := p.Ledger.Link(route.Links[0].ID).Alloc("c1"); !ok {
		t.Fatal("re-admitted reservation was destroyed by a stale release")
	}
}

// TestPostCommitTimeoutReleasesExactlyOnce: the confirmation is merely
// delayed past the session deadline. The timeout tears the committed
// reservation down once; the late confirmation arriving afterwards must
// neither complete the session nor touch the ledger again.
func TestPostCommitTimeoutReleasesExactlyOnce(t *testing.T) {
	n := 2
	sim, p, route, releases := releaseRig(t, Options{
		Timeout: 0.5,
		Deliver: func(conn string, hop int, _ string, _ bool) (bool, float64) {
			if hop >= n {
				return false, 2.0 // delivered, but far past the deadline
			}
			return false, 0
		},
	})
	var got Result
	p.Setup(admission.Test{ConnID: "c1", Req: req(64e3), Route: route, Mobility: qos.Mobile},
		func(r Result) { got = r })
	if err := sim.RunUntil(1); err != nil {
		t.Fatal(err)
	}
	if !errors.Is(got.Err, errTimeout) {
		t.Fatalf("err = %v, want ErrTimeout", got.Err)
	}
	if *releases != 1 {
		t.Fatalf("committed reservation released %d times, want exactly 1", *releases)
	}
	if res, err := p.Adm.Admit(admission.Test{ConnID: "c1", Req: req(64e3), Route: route, Mobility: qos.Mobile}); err != nil || !res.Admitted {
		t.Fatalf("re-admission failed: %+v %v", res, err)
	}
	// The delayed confirmation lands around t≈4; it must be inert.
	if err := sim.RunUntil(10); err != nil {
		t.Fatal(err)
	}
	if p.Commits != 0 {
		t.Fatalf("late confirmation completed a timed-out session (%d commits)", p.Commits)
	}
	if *releases != 1 {
		t.Fatalf("late confirmation caused another release (%d total)", *releases)
	}
	if _, ok := p.Ledger.Link(route.Links[0].ID).Alloc("c1"); !ok {
		t.Fatal("re-admitted reservation was destroyed by the late confirmation path")
	}
}
