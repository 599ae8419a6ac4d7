package adapt

import (
	"math"
	"testing"

	"armnet/internal/admission"
	"armnet/internal/des"
	"armnet/internal/maxmin"
	"armnet/internal/qos"
	"armnet/internal/strategy"
	"armnet/internal/topology"
)

// chain builds a 2-hop backbone (host -> bs -> air) with a 1.6 Mb/s
// wireless hop and returns it with the host-to-air route.
func chain(t *testing.T) (*topology.Backbone, topology.Route) {
	t.Helper()
	b := topology.NewBackbone()
	for _, id := range []topology.NodeID{"host", "bs", "air"} {
		if _, err := b.AddNode(topology.Node{ID: id}); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.AddDuplex(topology.Link{From: "host", To: "bs", Capacity: 10e6, PropDelay: 1e-3}); err != nil {
		t.Fatal(err)
	}
	if err := b.AddDuplex(topology.Link{From: "bs", To: "air", Capacity: 1.6e6, Wireless: true}); err != nil {
		t.Fatal(err)
	}
	route, err := b.ShortestPath("host", "air")
	if err != nil {
		t.Fatal(err)
	}
	return b, route
}

// rig builds chain's backbone, admits the given connections, and returns
// the pieces.
func rig(t *testing.T, conns []struct {
	id  string
	mob qos.Mobility
}) (*des.Simulator, *admission.Controller, *Manager, topology.Route) {
	t.Helper()
	b, route := chain(t)
	sim := des.New()
	lg := admission.NewLedger(b)
	ctl := admission.NewController(lg)
	mgr, err := NewManager(sim, lg, maxmin.ProtocolOptions{Refined: true})
	if err != nil {
		t.Fatal(err)
	}
	req := qos.Request{
		Bandwidth: qos.Bounds{Min: 100e3, Max: 1e6},
		Delay:     5, Jitter: 5, Loss: 0.05,
		Traffic: qos.TrafficSpec{Sigma: 10e3, Rho: 100e3},
	}
	for _, c := range conns {
		res, err := ctl.Admit(admission.Test{ConnID: c.id, Req: req, Route: route, Mobility: c.mob})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Admitted {
			t.Fatalf("%s rejected: %s", c.id, res.Reason)
		}
		if err := mgr.Register(c.id, route, req.Bandwidth, c.mob); err != nil {
			t.Fatal(err)
		}
	}
	return sim, ctl, mgr, route
}

// row reads connection id's open record and its ledger row on the first
// link of its route: the allocation a test checks, and whether the
// record is degrade-capped.
func row(t *testing.T, m *Manager, id string) (cur float64, degraded bool) {
	t.Helper()
	c, ok := m.conns[id]
	if !ok {
		t.Fatalf("%s has no open record", id)
	}
	al, ok := m.Ledger.Link(c.route.Links[0].ID).Alloc(id)
	if !ok {
		t.Fatalf("%s holds no row on %s", id, c.route.Links[0].ID)
	}
	return al.Cur, c.degraded
}

func TestStaticConnectionsShareExcessFairly(t *testing.T) {
	sim, ctl, mgr, route := rig(t, []struct {
		id  string
		mob qos.Mobility
	}{{"a", qos.Static}, {"b", qos.Static}})
	if err := sim.RunUntil(120); err != nil {
		t.Fatal(err)
	}
	// Wireless excess = 1.6e6 - 2*100e3 = 1.4e6; fair split 700k each;
	// demand cap = 900k each, so rate 700k -> allocation 800k.
	for _, id := range []string{"a", "b"} {
		if got, _ := row(t, mgr, id); math.Abs(got-800e3) > 1e3 {
			t.Fatalf("allocation[%s] = %v, want ~800k", id, got)
		}
	}
	// Ledger reflects the adapted allocations on the wireless hop.
	wl := ctl.Ledger.Link(route.Links[1].ID)
	if sum := wl.SumCur(); math.Abs(sum-1.6e6) > 2e3 {
		t.Fatalf("wireless allocated sum = %v, want full capacity", sum)
	}
}

func TestMobileConnectionsStayAtMin(t *testing.T) {
	sim, _, mgr, _ := rig(t, []struct {
		id  string
		mob qos.Mobility
	}{{"m", qos.Mobile}, {"s", qos.Static}})
	if err := sim.RunUntil(120); err != nil {
		t.Fatal(err)
	}
	if mob, _ := row(t, mgr, "m"); mob != 100e3 {
		t.Fatalf("mobile allocation = %v, want b_min", mob)
	}
	// The static one takes the whole excess (capped by demand).
	if st, _ := row(t, mgr, "s"); math.Abs(st-1e6) > 1e3 { // min 100k + demand-capped 900k excess
		t.Fatalf("static allocation = %v, want 1e6 (demand cap)", st)
	}
}

func TestMobilityFlipDropsToMin(t *testing.T) {
	sim, _, mgr, _ := rig(t, []struct {
		id  string
		mob qos.Mobility
	}{{"s", qos.Static}})
	if err := sim.RunUntil(60); err != nil {
		t.Fatal(err)
	}
	if got, _ := row(t, mgr, "s"); got <= 100e3 {
		t.Fatalf("static allocation did not grow: %v", got)
	}
	if err := mgr.SetMobility(mgr.conns["s"], qos.Mobile); err != nil {
		t.Fatal(err)
	}
	if got, _ := row(t, mgr, "s"); got != 100e3 {
		t.Fatalf("after flip allocation = %v, want b_min", got)
	}
	// Flip back: re-adapts.
	if err := mgr.SetMobility(mgr.conns["s"], qos.Static); err != nil {
		t.Fatal(err)
	}
	if err := sim.RunUntil(180); err != nil {
		t.Fatal(err)
	}
	if got, _ := row(t, mgr, "s"); got <= 100e3 {
		t.Fatalf("after flip back allocation = %v, want growth", got)
	}
}

func TestCapacityDecreaseSqueezesAllocations(t *testing.T) {
	sim, _, mgr, route := rig(t, []struct {
		id  string
		mob qos.Mobility
	}{{"a", qos.Static}, {"b", qos.Static}})
	if err := sim.RunUntil(120); err != nil {
		t.Fatal(err)
	}
	// Wireless capacity halves: 800k total, excess 600k, 300k each.
	if err := mgr.CapacityChanged(route.Links[1].ID, 800e3); err != nil {
		t.Fatal(err)
	}
	if err := sim.RunUntil(300); err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"a", "b"} {
		got, _ := row(t, mgr, id)
		if math.Abs(got-400e3) > 1e3 {
			t.Fatalf("allocation[%s] after shrink = %v, want 400k", id, got)
		}
	}
}

func TestUnregisterFreesExcess(t *testing.T) {
	sim, ctl, mgr, route := rig(t, []struct {
		id  string
		mob qos.Mobility
	}{{"a", qos.Static}, {"b", qos.Static}})
	if err := sim.RunUntil(120); err != nil {
		t.Fatal(err)
	}
	ctl.Ledger.Release("a", route)
	mgr.Unregister("a")
	if err := sim.RunUntil(300); err != nil {
		t.Fatal(err)
	}
	got, _ := row(t, mgr, "b")
	if math.Abs(got-1e6) > 1e3 { // demand cap b_max
		t.Fatalf("survivor allocation = %v, want demand cap 1e6", got)
	}
	// Unregistering twice is harmless.
	mgr.Unregister("a")
}

// TestSyncRouteSkipsAnotherBackbone: SyncRoute reaches a link's ledger
// state by Link.Index and checks the link found there, so a route of a
// second backbone with the same link IDs syncs nothing. The excess a
// ledger release frees reaches the protocol only once the connection's
// own route is synced.
func TestSyncRouteSkipsAnotherBackbone(t *testing.T) {
	sim, ctl, mgr, route := rig(t, []struct {
		id  string
		mob qos.Mobility
	}{{"a", qos.Static}, {"b", qos.Static}})
	if err := sim.RunUntil(120); err != nil {
		t.Fatal(err)
	}
	shared, _ := row(t, mgr, "b")
	ctl.Ledger.Release("a", route)
	_, twin := chain(t)
	mgr.SyncRoute(twin)
	if err := sim.RunUntil(300); err != nil {
		t.Fatal(err)
	}
	if got, _ := row(t, mgr, "b"); got != shared {
		t.Fatalf("after syncing the twin's route b holds %v, want its shared %v", got, shared)
	}
	mgr.SyncRoute(route)
	if err := sim.RunUntil(600); err != nil {
		t.Fatal(err)
	}
	if got, _ := row(t, mgr, "b"); !(got > shared) {
		t.Fatalf("after syncing its own route b holds %v, want more than its shared %v", got, shared)
	}
}

func TestRegisterValidation(t *testing.T) {
	_, _, mgr, route := rig(t, nil)
	if err := mgr.Register("x", route, qos.Bounds{}, qos.Static); err == nil {
		t.Fatal("invalid bounds accepted")
	}
	if err := mgr.Register("x", route, qos.Bounds{Min: 1, Max: 2}, qos.Static); err != nil {
		t.Fatal(err)
	}
	if err := mgr.Register("x", route, qos.Bounds{Min: 1, Max: 2}, qos.Static); err == nil {
		t.Fatal("duplicate accepted")
	}
}

func TestPoolFraction(t *testing.T) {
	// Neighbor's biggest static allocation 200k on 1.6M -> 12.5%.
	if got := PoolFraction(200e3, 1.6e6, 0.05, 0.20); math.Abs(got-0.125) > 1e-12 {
		t.Fatalf("pool fraction = %v", got)
	}
	// Tiny neighbor load clamps to the 5% floor.
	if got := PoolFraction(10e3, 1.6e6, 0.05, 0.20); got != 0.05 {
		t.Fatalf("pool floor = %v", got)
	}
	// Huge neighbor load clamps to the 20% ceiling.
	if got := PoolFraction(1e6, 1.6e6, 0.05, 0.20); got != 0.20 {
		t.Fatalf("pool ceiling = %v", got)
	}
	if got := PoolFraction(1, 0, 0.05, 0.20); got != 0.05 {
		t.Fatalf("zero capacity pool = %v", got)
	}
}

// TestMaxminOnlyUnderThePaperRule: every allocator is the one maxmin
// protocol under some switch rule, but Maxmin exposes it only under the
// paper's — WaterFill is that rule's oracle, not a rival's.
func TestMaxminOnlyUnderThePaperRule(t *testing.T) {
	b := topology.NewBackbone()
	for _, name := range strategy.Allocators() {
		rule, err := strategy.Rule(name)
		if err != nil {
			t.Fatal(err)
		}
		mgr, err := NewManagerWith(des.New(), admission.NewLedger(b), maxmin.ProtocolOptions{}, rule)
		if err != nil {
			t.Fatal(err)
		}
		if mgr.Alloc.Rule().Name != name {
			t.Fatalf("%s: protocol runs rule %q", name, mgr.Alloc.Rule().Name)
		}
		if got, want := mgr.Maxmin() != nil, name == strategy.DefaultAllocator; got != want {
			t.Fatalf("%s: Maxmin() non-nil = %v, want %v", name, got, want)
		}
	}
}
