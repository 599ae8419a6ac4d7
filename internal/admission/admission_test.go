package admission

import (
	"errors"
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"armnet/internal/qos"
	"armnet/internal/sched"
	"armnet/internal/topology"
)

// threeHop builds host -> sw -> bs -> air with the given capacities.
func threeHop(t *testing.T, caps [3]float64) (*topology.Backbone, topology.Route) {
	t.Helper()
	b := topology.NewBackbone()
	for _, id := range []topology.NodeID{"host", "sw", "bs", "air"} {
		if _, err := b.AddNode(topology.Node{ID: id}); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.AddDuplex(topology.Link{From: "host", To: "sw", Capacity: caps[0], PropDelay: 1e-3}); err != nil {
		t.Fatal(err)
	}
	if err := b.AddDuplex(topology.Link{From: "sw", To: "bs", Capacity: caps[1], PropDelay: 1e-3}); err != nil {
		t.Fatal(err)
	}
	if err := b.AddDuplex(topology.Link{From: "bs", To: "air", Capacity: caps[2], Wireless: true, LossProb: 0.005}); err != nil {
		t.Fatal(err)
	}
	r, err := b.ShortestPath("host", "air")
	if err != nil {
		t.Fatal(err)
	}
	return b, r
}

func req() qos.Request {
	return qos.Request{
		Bandwidth: qos.Bounds{Min: 64e3, Max: 256e3},
		Delay:     2,
		Jitter:    2,
		Loss:      0.02,
		Traffic:   qos.TrafficSpec{Sigma: 16e3, Rho: 64e3},
	}
}

func TestAdmitHappyPath(t *testing.T) {
	b, route := threeHop(t, [3]float64{10e6, 10e6, 1.6e6})
	ctl := NewController(NewLedger(b))
	res, err := ctl.Admit(Test{ConnID: "c1", Req: req(), Route: route, Mobility: qos.Mobile})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Admitted {
		t.Fatalf("rejected: %s at %s", res.Reason, res.FailedLink)
	}
	if res.Bandwidth != 64e3 {
		t.Fatalf("mobile allocation = %v, want b_min", res.Bandwidth)
	}
	if len(res.Hops) != 3 {
		t.Fatalf("hops = %d", len(res.Hops))
	}
	// Ledger committed on every link.
	for _, l := range route.Links {
		a, ok := ctl.Ledger.Link(l.ID).Alloc("c1")
		if !ok || a.Min != 64e3 {
			t.Fatalf("allocation missing on %s", l.ID)
		}
	}
	// Relaxed delays must sum to at least the floor and respect the bound.
	sum := 0.0
	for _, h := range res.Hops {
		if h.RelaxedDelay < h.HopDelay {
			t.Fatalf("relaxation tightened hop delay: %+v", h)
		}
		sum += h.RelaxedDelay
	}
	if sum < res.DelayFloor {
		t.Fatalf("relaxed sum %v below floor %v", sum, res.DelayFloor)
	}
}

func TestStaticGetsStampedRate(t *testing.T) {
	b, route := threeHop(t, [3]float64{10e6, 10e6, 1.6e6})
	ctl := NewController(NewLedger(b))
	res, err := ctl.Admit(Test{
		ConnID: "c1", Req: req(), Route: route,
		Mobility: qos.Static, BStamp: 100e3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Admitted {
		t.Fatalf("rejected: %s", res.Reason)
	}
	if res.Bandwidth != 164e3 {
		t.Fatalf("static allocation = %v, want b_min + b_stamp", res.Bandwidth)
	}
}

func TestStampClampedToBMax(t *testing.T) {
	b, route := threeHop(t, [3]float64{10e6, 10e6, 1.6e6})
	ctl := NewController(NewLedger(b))
	res, err := ctl.Admit(Test{
		ConnID: "c1", Req: req(), Route: route,
		Mobility: qos.Static, BStamp: 10e6,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Bandwidth != 256e3 {
		t.Fatalf("allocation = %v, want clamp at b_max", res.Bandwidth)
	}
}

func TestBandwidthRejection(t *testing.T) {
	b, route := threeHop(t, [3]float64{10e6, 10e6, 1.6e6})
	ctl := NewController(NewLedger(b))
	// Fill the wireless link with 25 connections of 64 kb/s = 1.6 Mb/s.
	for i := 0; i < 25; i++ {
		res, err := ctl.Admit(Test{ConnID: fmt.Sprintf("c%d", i), Req: req(), Route: route, Mobility: qos.Mobile})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Admitted {
			t.Fatalf("connection %d rejected early: %s", i, res.Reason)
		}
	}
	res, err := ctl.Admit(Test{ConnID: "extra", Req: req(), Route: route, Mobility: qos.Mobile})
	if err != nil {
		t.Fatal(err)
	}
	if res.Admitted {
		t.Fatal("26th connection admitted beyond capacity")
	}
	if res.Reason != ReasonBandwidth {
		t.Fatalf("reason = %s, want bandwidth", res.Reason)
	}
	if res.FailedLink != "bs->air" {
		t.Fatalf("failed link = %s, want the wireless hop", res.FailedLink)
	}
	// Rejection must not leave partial allocations.
	for _, l := range route.Links {
		if _, ok := ctl.Ledger.Link(l.ID).Alloc("extra"); ok {
			t.Fatalf("partial allocation left on %s", l.ID)
		}
	}
}

func TestDelayRejection(t *testing.T) {
	b, route := threeHop(t, [3]float64{10e6, 10e6, 1.6e6})
	ctl := NewController(NewLedger(b))
	r := req()
	r.Delay = 0.01 // tighter than d_min at b_min = 64 kb/s
	res, err := ctl.Admit(Test{ConnID: "c1", Req: r, Route: route, Mobility: qos.Mobile})
	if err != nil {
		t.Fatal(err)
	}
	if res.Admitted || res.Reason != reasonDelay {
		t.Fatalf("admitted=%v reason=%s, want delay rejection", res.Admitted, res.Reason)
	}
}

func TestJitterRejection(t *testing.T) {
	b, route := threeHop(t, [3]float64{10e6, 10e6, 1.6e6})
	ctl := NewController(NewLedger(b))
	r := req()
	r.Jitter = 0.1 // (16e3 + 1*8192)/64e3 = 0.378 > 0.1 at the first hop
	res, err := ctl.Admit(Test{ConnID: "c1", Req: r, Route: route, Mobility: qos.Mobile})
	if err != nil {
		t.Fatal(err)
	}
	if res.Admitted || res.Reason != reasonJitter {
		t.Fatalf("admitted=%v reason=%s, want jitter rejection", res.Admitted, res.Reason)
	}
}

func TestLossRejection(t *testing.T) {
	b, route := threeHop(t, [3]float64{10e6, 10e6, 1.6e6})
	ctl := NewController(NewLedger(b))
	r := req()
	r.Loss = 0.001 // wireless hop alone is 0.005
	res, err := ctl.Admit(Test{ConnID: "c1", Req: r, Route: route, Mobility: qos.Mobile})
	if err != nil {
		t.Fatal(err)
	}
	if res.Admitted || res.Reason != reasonLoss {
		t.Fatalf("admitted=%v reason=%s, want loss rejection", res.Admitted, res.Reason)
	}
}

func TestBufferRejection(t *testing.T) {
	b, route := threeHop(t, [3]float64{10e6, 10e6, 1.6e6})
	lg := NewLedger(b)
	// Starve the buffer on the middle link.
	lg.Link(route.Links[1].ID).BufferCapacity = 1000
	ctl := NewController(lg)
	res, err := ctl.Admit(Test{ConnID: "c1", Req: req(), Route: route, Mobility: qos.Mobile})
	if err != nil {
		t.Fatal(err)
	}
	if res.Admitted || res.Reason != reasonBuffer {
		t.Fatalf("admitted=%v reason=%s, want buffer rejection", res.Admitted, res.Reason)
	}
	if res.FailedLink != route.Links[1].ID {
		t.Fatalf("failed link = %s", res.FailedLink)
	}
}

func TestAdvanceReservationGatesNewButNotHandoff(t *testing.T) {
	b, route := threeHop(t, [3]float64{10e6, 10e6, 1.6e6})
	lg := NewLedger(b)
	wireless := route.Links[2].ID
	// Advance-reserve nearly everything on the wireless hop.
	if err := lg.Link(wireless).SetAdvance(1.58e6); err != nil {
		t.Fatal(err)
	}
	ctl := NewController(lg)
	res, err := ctl.Admit(Test{ConnID: "new", Req: req(), Route: route, Kind: KindNew, Mobility: qos.Mobile})
	if err != nil {
		t.Fatal(err)
	}
	if res.Admitted {
		t.Fatal("new connection admitted through the advance reservation")
	}
	res, err = ctl.Admit(Test{ConnID: "ho", Req: req(), Route: route, Kind: KindHandoff, Mobility: qos.Mobile})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Admitted {
		t.Fatalf("handoff rejected: %s", res.Reason)
	}
	// The handoff consumed b_min of the advance reservation.
	got := lg.Link(wireless).AdvanceReserved
	if math.Abs(got-(1.58e6-64e3)) > 1e-6 {
		t.Fatalf("advance after handoff = %v", got)
	}
}

func TestPoolGatesNewButAdmitsPoolClaim(t *testing.T) {
	b, route := threeHop(t, [3]float64{10e6, 10e6, 1.6e6})
	lg := NewLedger(b)
	wireless := route.Links[2].ID
	lg.Link(wireless).PoolFraction = 0.99
	ctl := NewController(lg)
	res, _ := ctl.Admit(Test{ConnID: "new", Req: req(), Route: route, Kind: KindNew, Mobility: qos.Mobile})
	if res.Admitted {
		t.Fatal("new connection admitted through the pool")
	}
	res, _ = ctl.Admit(Test{ConnID: "sudden", Req: req(), Route: route, Kind: KindPoolClaim, Mobility: qos.Mobile})
	if !res.Admitted {
		t.Fatalf("pool claim rejected: %s", res.Reason)
	}
}

func TestRelease(t *testing.T) {
	b, route := threeHop(t, [3]float64{10e6, 10e6, 1.6e6})
	ctl := NewController(NewLedger(b))
	if _, err := ctl.Admit(Test{ConnID: "c1", Req: req(), Route: route, Mobility: qos.Mobile}); err != nil {
		t.Fatal(err)
	}
	ctl.Ledger.Release("c1", route)
	for _, l := range route.Links {
		if _, ok := ctl.Ledger.Link(l.ID).Alloc("c1"); ok {
			t.Fatalf("allocation survives release on %s", l.ID)
		}
	}
	// Idempotent.
	ctl.Ledger.Release("c1", route)
}

func TestValidationErrors(t *testing.T) {
	b, route := threeHop(t, [3]float64{10e6, 10e6, 1.6e6})
	ctl := NewController(NewLedger(b))
	if _, err := ctl.Admit(Test{ConnID: "", Req: req(), Route: route}); !errors.Is(err, ErrValidation) {
		t.Fatalf("empty id error = %v", err)
	}
	if _, err := ctl.Admit(Test{ConnID: "x", Req: qos.Request{}, Route: route}); !errors.Is(err, ErrValidation) {
		t.Fatalf("bad request error = %v", err)
	}
	if _, err := ctl.Admit(Test{ConnID: "x", Req: req()}); !errors.Is(err, ErrValidation) {
		t.Fatalf("empty route error = %v", err)
	}
}

func TestSetCapacityAndAdvanceClamping(t *testing.T) {
	b, route := threeHop(t, [3]float64{10e6, 10e6, 1.6e6})
	lg := NewLedger(b)
	id := route.Links[2].ID
	if err := lg.SetCapacity(id, 800e3); err != nil {
		t.Fatal(err)
	}
	if got := lg.Link(id).Capacity; got != 800e3 {
		t.Fatalf("capacity = %v", got)
	}
	if err := lg.SetCapacity(id, -1); err == nil {
		t.Fatal("negative capacity accepted")
	}
	if err := lg.SetCapacity("nope", 1); !errors.Is(err, ErrUnknownLink) {
		t.Fatalf("unknown link error = %v", err)
	}
	if err := lg.Link(id).SetAdvance(1e9); err != nil {
		t.Fatal(err)
	}
	if got := lg.Link(id).AdvanceReserved; got != 800e3 {
		t.Fatalf("advance clamped to %v, want capacity", got)
	}
	if err := lg.Link(id).SetAdvance(-1e9); err != nil {
		t.Fatal(err)
	}
	if got := lg.Link(id).AdvanceReserved; got != 0 {
		t.Fatalf("advance floor = %v, want 0", got)
	}
}

func TestRCSPBufferCommit(t *testing.T) {
	b, route := threeHop(t, [3]float64{10e6, 10e6, 1.6e6})
	ctl := NewController(NewLedger(b))
	res, err := ctl.Admit(Test{
		ConnID: "c1", Req: req(), Route: route,
		Mobility: qos.Mobile, Discipline: sched.DisciplineRCSP,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Admitted {
		t.Fatalf("rejected: %s", res.Reason)
	}
	// RCSP buffer must not grow with hop index the way WFQ's does;
	// compare hop 3 requirement against the WFQ formula.
	wfqHop3 := sched.BufferWFQ(req().Traffic.Sigma, lmax, 3)
	if res.Hops[2].Buffer >= wfqHop3+lmax*2 {
		t.Logf("rcsp hop3 buffer %v, wfq %v", res.Hops[2].Buffer, wfqHop3)
	}
	for _, h := range res.Hops {
		if h.Buffer <= 0 {
			t.Fatalf("non-positive buffer committed: %+v", h)
		}
	}
}

// Property: admitted bandwidth is always inside the requested bounds and
// the ledger never over-commits a link beyond capacity minus advance
// reservation (in terms of minimum guarantees).
func TestQuickNoOvercommit(t *testing.T) {
	f := func(seed int64, nConns uint8) bool {
		b, route := func() (*topology.Backbone, topology.Route) {
			bb := topology.NewBackbone()
			for _, id := range []topology.NodeID{"h", "s", "a"} {
				if _, err := bb.AddNode(topology.Node{ID: id}); err != nil {
					t.Fatal(err)
				}
			}
			if err := bb.AddDuplex(topology.Link{From: "h", To: "s", Capacity: 5e6}); err != nil {
				t.Fatal(err)
			}
			if err := bb.AddDuplex(topology.Link{From: "s", To: "a", Capacity: 1.6e6}); err != nil {
				t.Fatal(err)
			}
			r, _ := bb.ShortestPath("h", "a")
			return bb, r
		}()
		ctl := NewController(NewLedger(b))
		total := int(nConns%40) + 1
		for i := 0; i < total; i++ {
			r := req()
			// Vary bandwidths deterministically off the seed.
			r.Bandwidth.Min = float64(16e3 + (seed+int64(i)*7919)%5*16e3)
			if r.Bandwidth.Min <= 0 {
				r.Bandwidth.Min = 16e3
			}
			r.Bandwidth.Max = r.Bandwidth.Min * 4
			r.Traffic.Rho = r.Bandwidth.Min
			res, err := ctl.Admit(Test{ConnID: fmt.Sprintf("c%d", i), Req: r, Route: route, Mobility: qos.Mobile})
			if err != nil {
				return false
			}
			if res.Admitted && (res.Bandwidth < r.Bandwidth.Min-1e-9 || res.Bandwidth > r.Bandwidth.Max+1e-9) {
				return false
			}
		}
		for _, ls := range ctl.Ledger.Links() {
			if ls.SumMin() > ls.Capacity+1e-6 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// Property: on random requests over random 1–4 hop paths, an admitted
// connection's relaxed per-hop delays always sum to at least the end-to-
// end floor and never individually fall below the raw hop delay, and the
// committed bandwidth respects the bounds.
func TestQuickRelaxationInvariants(t *testing.T) {
	f := func(seed int64) bool {
		rng := seed
		next := func(mod int64) int64 {
			rng = rng*6364136223846793005 + 1442695040888963407
			v := rng % mod
			if v < 0 {
				v += mod
			}
			return v
		}
		hops := int(next(4)) + 1
		bb := topology.NewBackbone()
		prev := topology.NodeID("n0")
		if _, err := bb.AddNode(topology.Node{ID: prev}); err != nil {
			t.Fatal(err)
		}
		var links []topology.Link
		for i := 1; i <= hops; i++ {
			id := topology.NodeID(fmt.Sprintf("n%d", i))
			if _, err := bb.AddNode(topology.Node{ID: id}); err != nil {
				t.Fatal(err)
			}
			l := topology.Link{
				From: prev, To: id,
				Capacity:  float64(next(20)+1) * 1e6,
				PropDelay: float64(next(5)) * 1e-3,
			}
			if err := bb.AddDuplex(l); err != nil {
				t.Fatal(err)
			}
			links = append(links, l)
			prev = id
		}
		route, err := bb.ShortestPath("n0", prev)
		if err != nil {
			return false
		}
		r := qos.Request{
			Bandwidth: qos.Bounds{Min: float64(next(200)+8) * 1e3},
			Delay:     5, Jitter: 10, Loss: 0.5,
			Traffic: qos.TrafficSpec{Sigma: float64(next(64)+1) * 1e3},
		}
		r.Bandwidth.Max = r.Bandwidth.Min * float64(next(4)+1)
		r.Traffic.Rho = r.Bandwidth.Min
		ctl := NewController(NewLedger(bb))
		res, err := ctl.Admit(Test{ConnID: "x", Req: r, Route: route, Mobility: qos.Mobile})
		if err != nil {
			return false
		}
		if !res.Admitted {
			return true // rejection is fine; invariants apply to admits
		}
		if res.Bandwidth < r.Bandwidth.Min-1e-9 || res.Bandwidth > r.Bandwidth.Max+1e-9 {
			return false
		}
		sum := 0.0
		for _, h := range res.Hops {
			if h.RelaxedDelay < h.HopDelay-1e-12 {
				return false
			}
			sum += h.RelaxedDelay
		}
		return sum >= res.DelayFloor-1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestSetCapacityRejectsNonFinite: a NaN or +Inf capacity is refused and
// the link keeps the capacity it had.
func TestSetCapacityRejectsNonFinite(t *testing.T) {
	b, route := threeHop(t, [3]float64{10e6, 10e6, 1.6e6})
	lg := NewLedger(b)
	id := route.Links[2].ID
	for _, bad := range []float64{math.NaN(), math.Inf(1)} {
		if err := lg.SetCapacity(id, bad); err == nil {
			t.Errorf("capacity %v accepted", bad)
		}
		if got := lg.Link(id).Capacity; got != 1.6e6 {
			t.Fatalf("capacity after refusing %v = %v, want 1.6e6", bad, got)
		}
	}
}
