package signal

import (
	"errors"
	"fmt"
	"testing"

	"armnet/internal/admission"
	"armnet/internal/clock"
	"armnet/internal/des"
	"armnet/internal/qos"
	"armnet/internal/topology"
)

func rig(t *testing.T) (*des.Simulator, *Plane, topology.Route) {
	t.Helper()
	b := topology.NewBackbone()
	for _, id := range []topology.NodeID{"h", "s1", "s2", "air"} {
		if _, err := b.AddNode(topology.Node{ID: id}); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.AddDuplex(topology.Link{From: "h", To: "s1", Capacity: 10e6, PropDelay: 1e-3}); err != nil {
		t.Fatal(err)
	}
	if err := b.AddDuplex(topology.Link{From: "s1", To: "s2", Capacity: 10e6, PropDelay: 1e-3}); err != nil {
		t.Fatal(err)
	}
	if err := b.AddDuplex(topology.Link{From: "s2", To: "air", Capacity: 1.6e6, Wireless: true}); err != nil {
		t.Fatal(err)
	}
	route, err := b.ShortestPath("h", "air")
	if err != nil {
		t.Fatal(err)
	}
	sim := des.New()
	lg := admission.NewLedger(b)
	return sim, NewPlaneOn(clock.Sim(sim), admission.NewController(lg), lg, Options{}), route
}

func req(min float64) qos.Request {
	return qos.Request{
		Bandwidth: qos.Bounds{Min: min, Max: min * 2},
		Delay:     5, Jitter: 5, Loss: 0.05,
		Traffic: qos.TrafficSpec{Sigma: min / 4, Rho: min},
	}
}

func TestSetupSucceedsWithRoundTripLatency(t *testing.T) {
	sim, p, route := rig(t)
	var got Result
	p.Setup(admission.Test{ConnID: "c1", Req: req(64e3), Route: route, Mobility: qos.Mobile}, func(r Result) { got = r })
	if err := sim.RunUntil(1); err != nil {
		t.Fatal(err)
	}
	if got.Err != nil {
		t.Fatalf("setup failed: %v", got.Err)
	}
	if !got.Admission.Admitted {
		t.Fatal("not admitted")
	}
	// Round trip = 2 × Σ (prop + processing): two wired hops at 1.2 ms
	// and the wireless hop at 0.2 ms (no propagation delay configured).
	want := 2 * (2*(1e-3+200e-6) + 200e-6)
	if diff := got.Latency - want; diff < -1e-9 || diff > 1e-9 {
		t.Fatalf("latency = %v, want %v", got.Latency, want)
	}
	if p.Commits != 1 || p.Sessions != 1 {
		t.Fatalf("counters: %d sessions %d commits", p.Sessions, p.Commits)
	}
	// No stale pending holds.
	for _, l := range route.Links {
		if p.pending[l.ID] != 0 {
			t.Fatalf("stale pending on %s", l.ID)
		}
	}
}

func TestConcurrentSetupsRaceForLastSlice(t *testing.T) {
	sim, p, route := rig(t)
	// Wireless hop 1.6 Mb/s: two concurrent 1 Mb/s setups cannot both
	// win, even though each alone would pass the atomic test at launch
	// time.
	results := map[string]Result{}
	for _, id := range []string{"a", "b"} {
		id := id
		p.Setup(admission.Test{ConnID: id, Req: req(1e6), Route: route, Mobility: qos.Mobile},
			func(r Result) { results[id] = r })
	}
	if err := sim.RunUntil(1); err != nil {
		t.Fatal(err)
	}
	okCount := 0
	for id, r := range results {
		if r.Err == nil {
			okCount++
		} else if !errors.Is(r.Err, errHopRejected) {
			t.Fatalf("%s failed with %v, want hop rejection", id, r.Err)
		}
	}
	if okCount != 1 {
		t.Fatalf("winners = %d, want exactly 1", okCount)
	}
	for _, l := range route.Links {
		if p.pending[l.ID] != 0 {
			t.Fatalf("stale pending on %s", l.ID)
		}
	}
}

func TestSequentialSetupsFillTheLink(t *testing.T) {
	sim, p, route := rig(t)
	ok := 0
	for i := 0; i < 30; i++ {
		i := i
		// Stagger so each completes before the next starts.
		sim.At(float64(i)*0.1, func() {
			p.Setup(admission.Test{ConnID: fmt.Sprintf("c%d", i), Req: req(100e3), Route: route, Mobility: qos.Mobile},
				func(r Result) {
					if r.Err == nil {
						ok++
					}
				})
		})
	}
	if err := sim.RunUntil(10); err != nil {
		t.Fatal(err)
	}
	// 1.6 Mb/s / 100 kb/s = 16 connections fit.
	if ok != 16 {
		t.Fatalf("admitted %d, want 16", ok)
	}
}

func TestEndToEndRejectionRollsBack(t *testing.T) {
	sim, p, route := rig(t)
	r := req(64e3)
	r.Delay = 1e-4 // impossible bound -> destination test fails
	var got Result
	p.Setup(admission.Test{ConnID: "c1", Req: r, Route: route, Mobility: qos.Mobile}, func(res Result) { got = res })
	if err := sim.RunUntil(1); err != nil {
		t.Fatal(err)
	}
	if !errors.Is(got.Err, errEndToEnd) {
		t.Fatalf("err = %v, want end-to-end failure", got.Err)
	}
	for _, l := range route.Links {
		if p.pending[l.ID] != 0 {
			t.Fatalf("stale pending on %s", l.ID)
		}
		if _, ok := p.Ledger.Link(l.ID).Alloc("c1"); ok {
			t.Fatalf("allocation committed despite rejection")
		}
	}
	if p.Rollbacks == 0 {
		t.Fatal("no rollback counted")
	}
}

func TestForwardPassSeesCommittedLoad(t *testing.T) {
	sim, p, route := rig(t)
	// Pre-commit 1.55 Mb/s directly through the controller.
	res, err := p.Adm.Admit(admission.Test{ConnID: "big", Req: req(1.55e6), Route: route, Mobility: qos.Mobile})
	if err != nil || !res.Admitted {
		t.Fatalf("precommit failed: %v %v", err, res.Reason)
	}
	var got Result
	p.Setup(admission.Test{ConnID: "late", Req: req(100e3), Route: route, Mobility: qos.Mobile}, func(r Result) { got = r })
	if err := sim.RunUntil(1); err != nil {
		t.Fatal(err)
	}
	if !errors.Is(got.Err, errHopRejected) {
		t.Fatalf("err = %v, want hop rejection", got.Err)
	}
	if got.FailedHop != 3 {
		t.Fatalf("failed hop = %d, want the wireless hop (3)", got.FailedHop)
	}
}

func TestTimeoutAbortsSession(t *testing.T) {
	sim, p, route := rig(t)
	// A plane with an absurdly short timeout: the forward pass cannot
	// complete in time.
	p.opts.Timeout = 1e-4
	var got Result
	p.Setup(admission.Test{ConnID: "c1", Req: req(64e3), Route: route, Mobility: qos.Mobile}, func(r Result) { got = r })
	if err := sim.RunUntil(1); err != nil {
		t.Fatal(err)
	}
	if !errors.Is(got.Err, errTimeout) {
		t.Fatalf("err = %v, want timeout", got.Err)
	}
	for _, l := range route.Links {
		if p.pending[l.ID] != 0 {
			t.Fatalf("stale pending after timeout on %s", l.ID)
		}
	}
}

func TestTimeoutScalesWithHopCount(t *testing.T) {
	_, p, route := rig(t)
	// Default per-hop budget (0.5 s) over 3 hops stays at the 2 s floor.
	if d := p.deadlineFor(route); d != 2 {
		t.Fatalf("3-hop deadline = %v, want floor 2", d)
	}
	// A larger per-hop budget scales past the floor.
	p.opts.perHopTimeout = 1.5
	if d := p.deadlineFor(route); d != 4.5 {
		t.Fatalf("scaled deadline = %v, want 4.5", d)
	}
	// An explicit timeout always wins.
	p.opts.Timeout = 7
	if d := p.deadlineFor(route); d != 7 {
		t.Fatalf("explicit deadline = %v, want 7", d)
	}
}

func TestLostForwardMessageIsRetransmitted(t *testing.T) {
	sim, p, route := rig(t)
	dropped := false
	p.opts.Deliver = func(conn string, hop int, _ string, _ bool) (bool, float64) {
		if hop == 1 && !dropped {
			dropped = true
			return true, 0
		}
		return false, 0
	}
	var got Result
	p.Setup(admission.Test{ConnID: "c1", Req: req(64e3), Route: route, Mobility: qos.Mobile}, func(r Result) { got = r })
	if err := sim.RunUntil(5); err != nil {
		t.Fatal(err)
	}
	if got.Err != nil {
		t.Fatalf("setup failed despite retransmission: %v", got.Err)
	}
	if p.Retransmits != 1 {
		t.Fatalf("Retransmits = %d, want 1", p.Retransmits)
	}
	// One backoff period (50 ms) dominates the clean round trip.
	if got.Latency < 0.05 {
		t.Fatalf("latency %v does not include the retransmission backoff", got.Latency)
	}
	if p.PendingTotal() != 0 {
		t.Fatal("stale pending holds after recovery")
	}
}

func TestRetryBudgetExhaustionAbortsSetup(t *testing.T) {
	sim, p, route := rig(t)
	drops := 0
	p.opts.Deliver = func(conn string, hop int, _ string, _ bool) (bool, float64) {
		if hop == 1 {
			drops++
			return true, 0
		}
		return false, 0
	}
	var got Result
	p.Setup(admission.Test{ConnID: "c1", Req: req(64e3), Route: route, Mobility: qos.Mobile}, func(r Result) { got = r })
	if err := sim.RunUntil(5); err != nil {
		t.Fatal(err)
	}
	if !errors.Is(got.Err, errLost) {
		t.Fatalf("err = %v, want ErrLost", got.Err)
	}
	// Original + MaxRetries (3) transmissions, all dropped.
	if drops != 4 || p.Retransmits != 3 {
		t.Fatalf("drops = %d retransmits = %d, want 4 and 3", drops, p.Retransmits)
	}
	if got.FailedHop != 2 {
		t.Fatalf("failed hop = %d, want 2", got.FailedHop)
	}
	if p.PendingTotal() != 0 {
		t.Fatal("tentative holds leaked after abort")
	}
}

func TestLostCommitConfirmationReleasesReservation(t *testing.T) {
	sim, p, route := rig(t)
	p.opts.Deliver = func(conn string, hop int, _ string, _ bool) (bool, float64) {
		return hop >= len(route.Links), 0 // lose every reverse-pass message
	}
	var got Result
	p.Setup(admission.Test{ConnID: "c1", Req: req(64e3), Route: route, Mobility: qos.Mobile}, func(r Result) { got = r })
	if err := sim.RunUntil(5); err != nil {
		t.Fatal(err)
	}
	if !errors.Is(got.Err, errLost) {
		t.Fatalf("err = %v, want ErrLost", got.Err)
	}
	// The reservation committed at the destination must have been torn
	// down when the confirmation could not be delivered.
	for _, l := range route.Links {
		if _, ok := p.Ledger.Link(l.ID).Alloc("c1"); ok {
			t.Fatalf("reservation leaked on %s", l.ID)
		}
	}
	if p.PendingTotal() != 0 {
		t.Fatal("tentative holds leaked")
	}
}

func TestCrashOrphansHoldsAndLeaseReclaims(t *testing.T) {
	sim, p, route := rig(t)
	p.opts.holdLease = 0.5
	called := false
	p.Setup(admission.Test{ConnID: "c1", Req: req(64e3), Route: route, Mobility: qos.Mobile}, func(Result) { called = true })
	// Crash mid-forward: hops complete at 1.2 ms and 2.4 ms, so at 2.5 ms
	// the session holds tentative bandwidth on the first two links.
	var lost int
	sim.At(2.5e-3, func() { lost = p.Crash() })
	if err := sim.RunUntil(0.01); err != nil {
		t.Fatal(err)
	}
	if lost != 1 {
		t.Fatalf("Crash() = %d sessions, want 1", lost)
	}
	if called {
		t.Fatal("completion callback ran despite crash")
	}
	if got, want := p.PendingTotal(), 2*64e3; got != want {
		t.Fatalf("orphaned holds = %v, want %v", got, want)
	}
	// The lease reaper reclaims the orphans once they age past the lease.
	if err := sim.RunUntil(2); err != nil {
		t.Fatal(err)
	}
	if p.PendingTotal() != 0 {
		t.Fatalf("holds not reclaimed: %v", p.PendingTotal())
	}
	if p.Reclaimed != 2 {
		t.Fatalf("Reclaimed = %d, want 2", p.Reclaimed)
	}
}

// TestCrashHoldsLastUntilDefaultLease pins the default hold lease: a
// crash's orphaned holds are still held short of 10 s and reclaimed
// after it, with no lease configured.
func TestCrashHoldsLastUntilDefaultLease(t *testing.T) {
	sim, p, route := rig(t)
	p.Setup(admission.Test{ConnID: "c1", Req: req(64e3), Route: route, Mobility: qos.Mobile}, func(Result) {})
	sim.At(2.5e-3, func() { p.Crash() })
	if err := sim.RunUntil(9.9); err != nil {
		t.Fatal(err)
	}
	if got, want := p.PendingTotal(), 2*64e3; got != want {
		t.Fatalf("orphaned holds before the lease ran out = %v, want %v", got, want)
	}
	if err := sim.RunUntil(25); err != nil {
		t.Fatal(err)
	}
	if p.PendingTotal() != 0 || p.Reclaimed != 2 {
		t.Fatalf("after the lease: holds %v, reclaimed %d; want 0 and 2", p.PendingTotal(), p.Reclaimed)
	}
}

func TestCrashAfterCommitReclaimsViaLease(t *testing.T) {
	sim, p, route := rig(t)
	p.opts.holdLease = 0.5
	p.Setup(admission.Test{ConnID: "c1", Req: req(64e3), Route: route, Mobility: qos.Mobile}, func(Result) {})
	// The destination commits at 2.6 ms; the confirmation lands at 5.2 ms.
	// Crash in between: the committed reservation is orphaned.
	sim.At(4e-3, func() { p.Crash() })
	if err := sim.RunUntil(2); err != nil {
		t.Fatal(err)
	}
	for _, l := range route.Links {
		if _, ok := p.Ledger.Link(l.ID).Alloc("c1"); ok {
			t.Fatalf("committed reservation not reclaimed on %s", l.ID)
		}
	}
	if p.Reclaimed != 1 {
		t.Fatalf("Reclaimed = %d, want 1 (the route orphan)", p.Reclaimed)
	}
}

func TestDownLinkRejectsForwardPass(t *testing.T) {
	sim, p, route := rig(t)
	p.Ledger.Link(route.Links[1].ID).Down = true
	var got Result
	p.Setup(admission.Test{ConnID: "c1", Req: req(64e3), Route: route, Mobility: qos.Mobile}, func(r Result) { got = r })
	if err := sim.RunUntil(1); err != nil {
		t.Fatal(err)
	}
	if !errors.Is(got.Err, errLinkDown) {
		t.Fatalf("err = %v, want ErrLinkDown", got.Err)
	}
	if got.FailedHop != 2 {
		t.Fatalf("failed hop = %d, want 2", got.FailedHop)
	}
	if p.PendingTotal() != 0 {
		t.Fatal("holds leaked after link-down rejection")
	}
}
