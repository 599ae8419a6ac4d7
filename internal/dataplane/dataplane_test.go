package dataplane

import (
	"fmt"
	"math"
	"testing"

	"armnet/internal/admission"
	"armnet/internal/des"
	"armnet/internal/qos"
	"armnet/internal/sched"
	"armnet/internal/topology"
)

// rig builds host -> sw -> bs -> air with 10/10/1.6 Mb/s links.
func rig(t testing.TB, wirelessLoss float64) (*topology.Backbone, topology.Route) {
	t.Helper()
	b := topology.NewBackbone()
	for _, id := range []topology.NodeID{"host", "sw", "bs", "air"} {
		if _, err := b.AddNode(topology.Node{ID: id}); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.AddDuplex(topology.Link{From: "host", To: "sw", Capacity: 10e6, PropDelay: 1e-3}); err != nil {
		t.Fatal(err)
	}
	if err := b.AddDuplex(topology.Link{From: "sw", To: "bs", Capacity: 10e6, PropDelay: 1e-3}); err != nil {
		t.Fatal(err)
	}
	if err := b.AddDuplex(topology.Link{From: "bs", To: "air", Capacity: 1.6e6, Wireless: true, LossProb: wirelessLoss}); err != nil {
		t.Fatal(err)
	}
	r, err := b.ShortestPath("host", "air")
	if err != nil {
		t.Fatal(err)
	}
	return b, r
}

func TestDeliveryAndDelayMeasurement(t *testing.T) {
	b, route := rig(t, 0)
	sim := des.New()
	dp, err := New(sim, b, Options{Seed: 2, PacketSize: 8192})
	if err != nil {
		t.Fatal(err)
	}
	spec := qos.TrafficSpec{Sigma: 16e3, Rho: 64e3}
	if err := dp.StartFlow("c1", route, 64e3, spec); err != nil {
		t.Fatal(err)
	}
	if err := sim.RunUntil(30); err != nil {
		t.Fatal(err)
	}
	st := dp.Stats("c1")
	if st == nil || st.Sent < 100 {
		t.Fatalf("sent = %+v", st)
	}
	// Lossless path: everything in flight or delivered.
	if st.Lost != 0 {
		t.Fatalf("lost %d on lossless path", st.Lost)
	}
	if st.Delivered < st.Sent-10 {
		t.Fatalf("delivered %d of %d", st.Delivered, st.Sent)
	}
	// Delay must include both propagation delays plus transmission.
	minDelay := 2e-3 + 8192/1.6e6
	if st.Delay.Min() < minDelay-1e-9 {
		t.Fatalf("min delay %v below physical floor %v", st.Delay.Min(), minDelay)
	}
}

func TestDelayStaysWithinAdmittedBound(t *testing.T) {
	// Admit a connection via Table 2, run its traffic on the data path
	// with saturating cross traffic, and verify the measured worst-case
	// delay respects the admitted end-to-end bound — the whole point of
	// the paper's admission control.
	b, route := rig(t, 0)
	ctl := admission.NewController(admission.NewLedger(b))
	req := qos.Request{
		Bandwidth: qos.Bounds{Min: 256e3, Max: 256e3},
		Delay:     2, Jitter: 2, Loss: 0.05,
		Traffic: qos.TrafficSpec{Sigma: 32e3, Rho: 256e3},
	}
	res, err := ctl.Admit(admission.Test{ConnID: "obs", Req: req, Route: route, Mobility: qos.Mobile})
	if err != nil || !res.Admitted {
		t.Fatalf("admission failed: %v %v", err, res.Reason)
	}
	sim := des.New()
	dp, err := New(sim, b, Options{Seed: 5, PacketSize: 8192})
	if err != nil {
		t.Fatal(err)
	}
	if err := dp.StartFlow("obs", route, res.Bandwidth, req.Traffic); err != nil {
		t.Fatal(err)
	}
	// Cross traffic from another admitted connection saturating its own
	// reservation (and then some — WFQ protects the observed flow).
	if err := dp.StartFlow("cross", route, 1.6e6-256e3, qos.TrafficSpec{Sigma: 64e3, Rho: 2e6}); err != nil {
		t.Fatal(err)
	}
	if err := sim.RunUntil(20); err != nil {
		t.Fatal(err)
	}
	st := dp.Stats("obs")
	if st.Delivered < 100 {
		t.Fatalf("delivered = %d", st.Delivered)
	}
	if st.Delay.Max() > res.DelayFloor+0.05 {
		t.Fatalf("measured max delay %v exceeds admitted floor %v", st.Delay.Max(), res.DelayFloor)
	}
	if st.Delay.Max() > req.Delay {
		t.Fatalf("measured max delay %v exceeds the requested bound %v", st.Delay.Max(), req.Delay)
	}
	// Table 2's jitter row: observed delay variation within the bound.
	if st.Jitter() > req.Jitter {
		t.Fatalf("measured jitter %v exceeds bound %v", st.Jitter(), req.Jitter)
	}
	if st.Jitter() <= 0 {
		t.Fatal("no jitter measured under cross traffic")
	}
}

func TestWirelessLossMatchesComposedProbability(t *testing.T) {
	b, route := rig(t, 0.02)
	sim := des.New()
	dp, err := New(sim, b, Options{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if err := dp.StartFlow("c1", route, 256e3, qos.TrafficSpec{Sigma: 8192, Rho: 256e3}); err != nil {
		t.Fatal(err)
	}
	if err := sim.RunUntil(400); err != nil {
		t.Fatal(err)
	}
	st := dp.Stats("c1")
	if st.Sent < 5000 {
		t.Fatalf("sent = %d", st.Sent)
	}
	want := sched.LossOnPath([]float64{0, 0, 0.02})
	if got := st.LossRate(); math.Abs(got-want) > 0.01 {
		t.Fatalf("loss = %v, want ~%v", got, want)
	}
}

func TestStartFlowValidation(t *testing.T) {
	b, route := rig(t, 0)
	sim := des.New()
	dp, err := New(sim, b, Options{})
	if err != nil {
		t.Fatal(err)
	}
	spec := qos.TrafficSpec{Sigma: 8192, Rho: 64e3}
	if err := dp.StartFlow("x", topology.Route{}, 64e3, spec); err == nil {
		t.Fatal("empty route accepted")
	}
	if err := dp.StartFlow("x", route, 0, spec); err == nil {
		t.Fatal("zero rate accepted")
	}
	if err := dp.StartFlow("x", route, 64e3, qos.TrafficSpec{}); err == nil {
		t.Fatal("invalid spec accepted")
	}
	if err := dp.StartFlow("x", route, 64e3, spec); err != nil {
		t.Fatal(err)
	}
	if err := dp.StartFlow("x", route, 64e3, spec); err == nil {
		t.Fatal("duplicate flow accepted")
	}
	if got := dp.Flows(); len(got) != 1 || got[0] != "x" {
		t.Fatalf("flows = %v", got)
	}
}

func TestStopFlowSilencesSource(t *testing.T) {
	b, route := rig(t, 0)
	sim := des.New()
	dp, err := New(sim, b, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := dp.StartFlow("x", route, 64e3, qos.TrafficSpec{Sigma: 8192, Rho: 64e3}); err != nil {
		t.Fatal(err)
	}
	if err := sim.RunUntil(5); err != nil {
		t.Fatal(err)
	}
	dp.StopFlow("x")
	if dp.Stats("x") != nil {
		t.Fatal("stats readable after stop")
	}
	if err := sim.RunUntil(10); err != nil {
		t.Fatal(err)
	}
	if len(dp.Flows()) != 0 {
		t.Fatal("flow list not empty")
	}
	dp.StopFlow("x") // idempotent
}

func TestRCSPDataplane(t *testing.T) {
	b, route := rig(t, 0)
	req := qos.Request{
		Bandwidth: qos.Bounds{Min: 128e3, Max: 128e3},
		Delay:     2, Jitter: 2, Loss: 0.05,
		Traffic: qos.TrafficSpec{Sigma: 16e3, Rho: 128e3},
	}
	res, err := admission.NewController(admission.NewLedger(b)).Admit(admission.Test{ConnID: "c1", Req: req, Route: route, Mobility: qos.Mobile})
	if err != nil || !res.Admitted {
		t.Fatalf("admission failed: %v %v", err, res.Reason)
	}
	sim := des.New()
	dp, err := New(sim, b, Options{Discipline: sched.DisciplineRCSP, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if err := dp.StartFlow("c1", route, res.Bandwidth, req.Traffic); err != nil {
		t.Fatal(err)
	}
	if err := sim.RunUntil(30); err != nil {
		t.Fatal(err)
	}
	st := dp.Stats("c1")
	if st.Delivered < 100 {
		t.Fatalf("rcsp delivered %d", st.Delivered)
	}
	// Table 2's jitter row: the regulator keeps the observed delay
	// variation within the end-to-end jitter the admission promised.
	if st.Jitter() > res.EndToEndJitter {
		t.Fatalf("rcsp jitter %v exceeds the admitted bound %v", st.Jitter(), res.EndToEndJitter)
	}
}

func TestManyFlowsShareFairly(t *testing.T) {
	b, route := rig(t, 0)
	sim := des.New()
	dp, err := New(sim, b, Options{Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	// 10 equal flows over the 1.6 Mb/s wireless hop, each reserved 160k
	// and sourcing just below it: all must be delivered with similar
	// delay distributions. Starts are staggered so the synchronized-
	// ticker phase artifact doesn't pin a fixed service order.
	for i := 0; i < 10; i++ {
		id := fmt.Sprintf("f%d", i)
		at := float64(i) * 0.0071
		sim.At(at, func() {
			if err := dp.StartFlow(id, route, 160e3, qos.TrafficSpec{Sigma: 8192, Rho: 150e3}); err != nil {
				t.Error(err)
			}
		})
	}
	if err := sim.RunUntil(60); err != nil {
		t.Fatal(err)
	}
	var means []float64
	for i := 0; i < 10; i++ {
		st := dp.Stats(fmt.Sprintf("f%d", i))
		if st.Delivered < 500 {
			t.Fatalf("flow %d delivered %d", i, st.Delivered)
		}
		means = append(means, st.Delay.Mean())
	}
	lo, hi := means[0], means[0]
	for _, m := range means {
		if m < lo {
			lo = m
		}
		if m > hi {
			hi = m
		}
	}
	if hi > 2*lo {
		t.Fatalf("unfair delays across equal flows: min %v max %v", lo, hi)
	}
}

func TestDelayQuantiles(t *testing.T) {
	b, route := rig(t, 0)
	sim := des.New()
	dp, err := New(sim, b, Options{Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	if err := dp.StartFlow("c1", route, 256e3, qos.TrafficSpec{Sigma: 32e3, Rho: 256e3}); err != nil {
		t.Fatal(err)
	}
	if err := dp.StartFlow("cross", route, 1.3e6, qos.TrafficSpec{Sigma: 64e3, Rho: 1.3e6}); err != nil {
		t.Fatal(err)
	}
	if err := sim.RunUntil(30); err != nil {
		t.Fatal(err)
	}
	st := dp.Stats("c1")
	if st.DelayQuantile(0.5) <= 0 {
		t.Fatal("no median delay")
	}
	// Quantiles are monotone and bracketed by min/max.
	p50, p95, p99 := st.DelayQuantile(0.5), st.DelayQuantile(0.95), st.DelayQuantile(0.99)
	if !(p50 <= p95 && p95 <= p99) {
		t.Fatalf("quantiles not monotone: %v %v %v", p50, p95, p99)
	}
	if p99 > st.Delay.Max()+1e-3 || p50 < st.Delay.Min()-1e-3 {
		t.Fatalf("quantiles outside observed range: p50=%v p99=%v min=%v max=%v",
			p50, p99, st.Delay.Min(), st.Delay.Max())
	}
	// Fresh stats report zero.
	var empty FlowStats
	if empty.DelayQuantile(0.5) != 0 {
		t.Fatal("empty quantile not zero")
	}
}

func BenchmarkDataplaneForwarding(b *testing.B) {
	bb, route := rig(b, 0)
	sim := des.New()
	dp, err := New(sim, bb, Options{Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	if err := dp.StartFlow("f", route, 800e3, qos.TrafficSpec{Sigma: 8192, Rho: 800e3}); err != nil {
		b.Fatal(err)
	}
	horizon := 0.0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		horizon += 1
		if err := sim.RunUntil(horizon); err != nil {
			b.Fatal(err)
		}
	}
	st := dp.Stats("f")
	if st.Delivered == 0 {
		b.Fatal("nothing delivered")
	}
	b.ReportMetric(float64(st.Delivered)/float64(b.N), "pkts/iter")
}
