package strategy_test

import (
	"math"
	"strings"
	"testing"

	"armnet/internal/admission"
	"armnet/internal/clock"
	"armnet/internal/des"
	"armnet/internal/maxmin"
	"armnet/internal/qos"
	"armnet/internal/strategy"
	"armnet/internal/topology"
)

// newProtocol builds the named allocator: the ADVERTISE/UPDATE protocol
// on sim under the allocator's switch rule.
func newProtocol(t testing.TB, name string, sim *des.Simulator, opts maxmin.ProtocolOptions) *maxmin.Protocol {
	t.Helper()
	rule, err := strategy.Rule(name)
	if err != nil {
		t.Fatal(err)
	}
	return maxmin.NewProtocolWith(clock.Sim(sim), opts, rule)
}

func TestRegistryDefaultsAndErrors(t *testing.T) {
	r, err := strategy.Rule("")
	if err != nil || r.Name != strategy.DefaultAllocator || r.Weight != nil {
		t.Fatalf("empty allocator name -> %+v, %v; want the paper's rule %q", r, err, strategy.DefaultAllocator)
	}
	if _, err := strategy.Rule("nope"); err == nil ||
		!strings.Contains(err.Error(), "maxmin") {
		t.Fatalf("unknown allocator error should list the allocator names, got %v", err)
	}
	// A rule's name labels its retransmit events, so it must be the name
	// the allocator is selected by.
	for _, name := range strategy.Allocators() {
		if r, err := strategy.Rule(name); err != nil || r.Name != name {
			t.Fatalf("Rule(%q) = %+v, %v; want a rule named %q", name, r, err, name)
		}
	}
	lg := admission.NewLedger(topology.NewBackbone())
	d, err := strategy.NewAdmitter("", lg, nil)
	if _, ok := d.(*admission.Controller); err != nil || !ok {
		t.Fatalf("empty admitter name -> %T, %v; want the Table 2 controller", d, err)
	}
	if _, err := strategy.NewAdmitter("nope", lg, nil); err == nil ||
		!strings.Contains(err.Error(), "table2") {
		t.Fatalf("unknown admitter error should list the admitter names, got %v", err)
	}
	for name, got := range map[string][]string{
		"allocators": strategy.Allocators(),
		"admitters":  strategy.Admitters(),
	} {
		if len(got) < 2 {
			t.Fatalf("%s roster has %d entries, want the default plus a rival", name, len(got))
		}
		for i := 1; i < len(got); i++ {
			if got[i-1] >= got[i] {
				t.Fatalf("%s list not sorted: %v", name, got)
			}
		}
	}
}

// TestEricaFairShare: on a single shared bottleneck, the explicit-rate
// sweep must converge to the equal split, respect demand caps, and track
// capacity changes — the same fixed points as max-min, reached with one
// round trip per session.
func TestEricaFairShare(t *testing.T) {
	sim := des.New()
	a := newProtocol(t, "erica", sim, maxmin.ProtocolOptions{})
	if err := a.AddLink("wl", 9e6); err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"a", "b", "c"} {
		if err := a.AddConn(maxmin.Conn{ID: id, Path: []string{"wl"}, Demand: 9e6}); err != nil {
			t.Fatal(err)
		}
		a.Kick(id) // the add-then-kick contract adapt.Register follows
	}
	if err := sim.RunUntil(10); err != nil {
		t.Fatal(err)
	}
	for id, r := range a.Rates() {
		if math.Abs(r-3e6) > 1 {
			t.Fatalf("rate[%s] = %v, want 3e6 equal split", id, r)
		}
	}
	// A demand-capped session keeps only its demand; the others keep at
	// least the equal fair share and the link stays feasible. (ERICA's
	// offer rule max(C/N, C−Σothers) admits *unequal* fixed points once
	// the link saturates — unlike maxmin it only guarantees the C/N
	// floor. That fairness gap is precisely what the arena quantifies.)
	a.RemoveConn("c")
	if err := a.AddConn(maxmin.Conn{ID: "c", Path: []string{"wl"}, Demand: 1e6}); err != nil {
		t.Fatal(err)
	}
	a.Kick("c")
	if err := sim.RunUntil(20); err != nil {
		t.Fatal(err)
	}
	checkEricaInvariants(t, a.Rates(), 9e6, "c", 1e6)
	// A capacity drop re-sweeps the drifted sessions down to feasibility.
	if _, err := a.TriggerCapacityChange("wl", 5e6); err != nil {
		t.Fatal(err)
	}
	if err := sim.RunUntil(30); err != nil {
		t.Fatal(err)
	}
	checkEricaInvariants(t, a.Rates(), 5e6, "c", 1e6)
	st := a.Stats()
	if st.Sessions == 0 || st.Messages == 0 {
		t.Fatalf("erica reported no control work: %+v", st)
	}
	// One round trip per sweep: messages stay far below maxmin's
	// four-round-trip protocol (>= 4 * 2 hops * sessions).
	if st.Messages >= 4*2*st.Sessions {
		t.Fatalf("erica spent %d messages over %d sessions — not a single-round-trip protocol",
			st.Messages, st.Sessions)
	}
}

// checkEricaInvariants asserts ERICA's convergence guarantees on a
// single saturated bottleneck: the capped session gets exactly its
// demand, every uncapped session gets at least the equal fair share
// C/N, and the committed rates stay feasible.
func checkEricaInvariants(t *testing.T, rates map[string]float64, capacity float64, capped string, cap float64) {
	t.Helper()
	sum, fair := 0.0, capacity/float64(len(rates))
	for id, r := range rates {
		sum += r
		if id == capped {
			if math.Abs(r-cap) > 1 {
				t.Fatalf("rate[%s] = %v, want demand cap %v", id, r, cap)
			}
		} else if r < fair-1 {
			t.Fatalf("rate[%s] = %v below the C/N floor %v", id, r, fair)
		}
	}
	if sum > capacity+1 {
		t.Fatalf("committed rates sum to %v > capacity %v", sum, capacity)
	}
}

// TestLogWeightProportionalShares: on a saturated single bottleneck
// whose sharers are all demand-uncapped, the log-weight allocator must
// converge to the exact Robert–Véber weighted proportional split
// C·w_c/Σw — tilted toward the heavy flow, but only logarithmically.
func TestLogWeightProportionalShares(t *testing.T) {
	sim := des.New()
	a := newProtocol(t, "logweight", sim, maxmin.ProtocolOptions{})
	if err := a.AddLink("wl", 6e6); err != nil {
		t.Fatal(err)
	}
	demands := map[string]float64{"heavy": 8e6, "light": 2e6}
	for _, id := range []string{"heavy", "light"} {
		if err := a.AddConn(maxmin.Conn{ID: id, Path: []string{"wl"}, Demand: demands[id]}); err != nil {
			t.Fatal(err)
		}
		a.Kick(id)
	}
	if err := sim.RunUntil(10); err != nil {
		t.Fatal(err)
	}
	// light (demand 2e6) is capped below its weighted share, so the fixed
	// point is heavy = C − 2e6, light = demand.
	rates := a.Rates()
	if r := rates["light"]; math.Abs(r-2e6) > 1 {
		t.Fatalf("rate[light] = %v, want demand cap 2e6", r)
	}
	if r := rates["heavy"]; math.Abs(r-4e6) > 1 {
		t.Fatalf("rate[heavy] = %v, want leftover 4e6", r)
	}
	// Drop capacity so both flows saturate uncapped: the committed rates
	// must land exactly on the log-weighted proportional split.
	if _, err := a.TriggerCapacityChange("wl", 3e6); err != nil {
		t.Fatal(err)
	}
	if err := sim.RunUntil(20); err != nil {
		t.Fatal(err)
	}
	wh := 1 + math.Log1p(8e6)
	wl := 1 + math.Log1p(2e6)
	rates = a.Rates()
	sum := 0.0
	for id, want := range map[string]float64{
		"heavy": 3e6 * wh / (wh + wl),
		"light": 3e6 * wl / (wh + wl),
	} {
		got := rates[id]
		sum += got
		if math.Abs(got-want) > 1 {
			t.Fatalf("rate[%s] = %v, want weighted share %v", id, got, want)
		}
	}
	if math.Abs(sum-3e6) > 1 {
		t.Fatalf("weighted shares sum to %v, want full capacity 3e6", sum)
	}
	if rates["heavy"] <= rates["light"] || rates["heavy"] > 1.1*rates["light"] {
		t.Fatalf("log weighting should tilt mildly toward the heavy flow: %v vs %v",
			rates["heavy"], rates["light"])
	}
	st := a.Stats()
	if st.Sessions == 0 || st.Messages == 0 {
		t.Fatalf("logweight reported no control work: %+v", st)
	}
}

// measuredRig builds a 2-hop route whose wireless hop is the bottleneck
// and returns the admitter and its ledger.
func measuredRig(t *testing.T) (admission.Admitter, *admission.Ledger, topology.Route) {
	t.Helper()
	b := topology.NewBackbone()
	for _, id := range []topology.NodeID{"h", "bs", "air"} {
		b.MustAddNode(topology.Node{ID: id})
	}
	b.MustAddDuplex(topology.Link{From: "h", To: "bs", Capacity: 10e6, PropDelay: 1e-3})
	b.MustAddDuplex(topology.Link{From: "bs", To: "air", Capacity: 1.6e6, Wireless: true})
	route, err := b.ShortestPath("h", "air")
	if err != nil {
		t.Fatal(err)
	}
	lg := admission.NewLedger(b)
	adm, err := strategy.NewAdmitter("measured", lg, nil)
	if err != nil {
		t.Fatal(err)
	}
	return adm, lg, route
}

func measuredReq(bmin float64) qos.Request {
	return qos.Request{
		Bandwidth: qos.Bounds{Min: bmin, Max: 2 * bmin},
		Delay:     2, Jitter: 2, Loss: 0.02,
		Traffic: qos.TrafficSpec{Sigma: bmin / 4, Rho: bmin},
	}
}

// TestMeasuredHeadroom: the measurement-based admitter books b_min flat
// and rejects once committed load would cross the 95% headroom line —
// no Table 2 delay/jitter rows at all.
func TestMeasuredHeadroom(t *testing.T) {
	adm, lg, route := measuredRig(t)
	for i, id := range []string{"c1", "c2"} {
		res, err := adm.Admit(admission.Test{ConnID: id, Req: measuredReq(600e3), Route: route, Mobility: qos.Static})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Admitted || res.Bandwidth != 600e3 {
			t.Fatalf("admit %d: %+v, want admitted at flat b_min", i, res)
		}
	}
	// 1.2e6 + 600e3 = 1.8e6 > 0.95 * 1.6e6: over the headroom line.
	res, err := adm.Admit(admission.Test{ConnID: "c3", Req: measuredReq(600e3), Route: route, Mobility: qos.Static})
	if err != nil {
		t.Fatal(err)
	}
	if res.Admitted || res.Reason != admission.ReasonBandwidth {
		t.Fatalf("third admit = %+v, want bandwidth rejection at 95%% headroom", res)
	}
	wl := lg.Link(route.Links[1].ID)
	if got := wl.SumCur(); got != 1.2e6 {
		t.Fatalf("committed load = %v, want exactly 2 x b_min", got)
	}
	if _, ok := wl.Alloc("c3"); ok {
		t.Fatal("rejected connection left a booking behind")
	}
}

// TestMeasuredHandoffConsumesAdvance: handoffs and pool claims draw
// their b_min out of the advance-reserve, same as Table 2 — the rival
// changes the admit test, not the reservation bookkeeping.
func TestMeasuredHandoffConsumesAdvance(t *testing.T) {
	adm, lg, route := measuredRig(t)
	wl := route.Links[1].ID
	if err := lg.SetAdvance(wl, 400e3); err != nil {
		t.Fatal(err)
	}
	res, err := adm.Admit(admission.Test{ConnID: "ho", Req: measuredReq(600e3), Route: route,
		Kind: admission.KindHandoff, Mobility: qos.Mobile})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Admitted {
		t.Fatalf("handoff rejected: %+v", res)
	}
	if got := lg.Link(wl).AdvanceReserved; got != 0 {
		t.Fatalf("advance reserve = %v after handoff, want fully consumed", got)
	}
	if a, ok := lg.Link(wl).Alloc("ho"); !ok || a.Min != 600e3 {
		t.Fatalf("handoff booking = %+v, want Min 600k", a)
	}
}
