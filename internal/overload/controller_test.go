package overload

import (
	"testing"

	"armnet/internal/admission"
	"armnet/internal/des"
	"armnet/internal/eventbus"
	"armnet/internal/topology"
)

// oneCell builds a single-cell fixture: one wireless downlink of 1 Mb/s
// whose pressure the test steers directly through the ledger's advance
// reservation (pressure = (ΣMin + b_resv)/Capacity).
func oneCell(t *testing.T, pol Policy, hooks Hooks) (*des.Simulator, *admission.Ledger, *Controller, topology.LinkID) {
	t.Helper()
	b := topology.NewBackbone()
	if _, err := b.AddNode(topology.Node{ID: "bs"}); err != nil {
		t.Fatal(err)
	}
	if _, err := b.AddNode(topology.Node{ID: "air"}); err != nil {
		t.Fatal(err)
	}
	if err := b.AddDuplex(topology.Link{From: "bs", To: "air", Capacity: 1e6, Wireless: true}); err != nil {
		t.Fatal(err)
	}
	link := b.Link("bs", "air")
	sim := des.New()
	lg := admission.NewLedger(b)
	bus := eventbus.New(sim)
	c := NewController(sim, lg, bus, pol, hooks)
	c.Start([]CellLink{{Cell: "cell", Link: link.ID}})
	return sim, lg, c, link.ID
}

// steer sets the link pressure to the given utilization fraction.
func steer(t *testing.T, lg *admission.Ledger, link topology.LinkID, util float64) {
	t.Helper()
	if err := lg.Link(link).SetAdvance(util * 1e6); err != nil {
		t.Fatal(err)
	}
}

// fastPol reacts within one sample: no smoothing, 1 s period.
func fastPol() Policy {
	p := Default()
	p.Sample = 1
	p.Alpha = 1
	return p
}

func TestStageForHysteresis(t *testing.T) {
	p := Default()
	cases := []struct {
		cur  stageLevel
		util float64
		want stageLevel
	}{
		// Escalation jumps straight to the highest crossed high-water.
		{stageNormal, 0.5, stageNormal},
		{stageNormal, 0.85, stageDegrade},
		{stageNormal, 0.93, stageShedStatic},
		{stageNormal, 0.99, stageShedMobile},
		// Holding inside the hysteresis band keeps the stage.
		{stageDegrade, 0.75, stageDegrade},
		{stageShedStatic, 0.85, stageShedStatic},
		{stageShedMobile, 0.92, stageShedMobile},
		// De-escalation needs util below the stage's low-water, and
		// steps down exactly one stage per sample.
		{stageDegrade, 0.69, stageNormal},
		{stageShedStatic, 0.60, stageDegrade},
		{stageShedMobile, 0.10, stageShedStatic},
	}
	for _, tc := range cases {
		if got := p.stageFor(tc.cur, tc.util); got != tc.want {
			t.Errorf("stageFor(%v, %g) = %v, want %v", tc.cur, tc.util, got, tc.want)
		}
	}
}

func TestControllerEscalatesAndDeescalates(t *testing.T) {
	degrades, restores := 0, 0
	sim, lg, c, link := oneCell(t, fastPol(), Hooks{
		Degrade: func(topology.CellID, topology.LinkID) int { degrades++; return 2 },
		Restore: func(topology.CellID, topology.LinkID) int { restores++; return 2 },
	})
	steer(t, lg, link, 0.95)
	if err := sim.RunUntil(1.5); err != nil {
		t.Fatal(err)
	}
	if got := c.state["cell"].stage; got != stageShedStatic {
		t.Fatalf("stage after hot sample = %v, want shed-static", got)
	}
	if degrades != 1 {
		t.Fatalf("degrade hook ran %d times, want 1", degrades)
	}
	if c.Cascades != 2 {
		t.Fatalf("Cascades = %d, want the hook's 2", c.Cascades)
	}
	// Cooling off: one stage per sample, restore only on leaving degrade.
	steer(t, lg, link, 0.1)
	if err := sim.RunUntil(2.5); err != nil {
		t.Fatal(err)
	}
	if got := c.state["cell"].stage; got != stageDegrade {
		t.Fatalf("stage after one cool sample = %v, want degrade", got)
	}
	if restores != 0 {
		t.Fatal("restore hook ran before the cell left the degrade band")
	}
	if err := sim.RunUntil(3.5); err != nil {
		t.Fatal(err)
	}
	if got := c.state["cell"].stage; got != stageNormal {
		t.Fatalf("stage after two cool samples = %v, want normal", got)
	}
	if restores != 1 {
		t.Fatalf("restore hook ran %d times, want 1", restores)
	}
}

func TestQueueDepthEscalatesOneExtraStage(t *testing.T) {
	pol := fastPol()
	pol.QueueDepth = 4
	depth := 0
	sim, lg, c, link := oneCell(t, pol, Hooks{
		QueueDepth: func() int { return depth },
	})
	steer(t, lg, link, 0.86) // degrade band only
	depth = 4                // at the limit counts as hot
	if err := sim.RunUntil(1.5); err != nil {
		t.Fatal(err)
	}
	if got := c.state["cell"].stage; got != stageShedStatic {
		t.Fatalf("stage with hot queue = %v, want shed-static (one above degrade)", got)
	}
}

func TestAllowSetupPriorityOrder(t *testing.T) {
	sim, lg, c, link := oneCell(t, fastPol(), Hooks{})
	steer(t, lg, link, 0.93) // shed-static band
	if err := sim.RunUntil(1.5); err != nil {
		t.Fatal(err)
	}
	if ok, _ := c.AllowSetup(classHandoff, "cell", "p"); !ok {
		t.Fatal("handoff shed at shed-static")
	}
	if ok, _ := c.AllowSetup(ClassNewMobile, "cell", "p"); !ok {
		t.Fatal("new-mobile shed at shed-static")
	}
	if ok, reason := c.AllowSetup(ClassNewStatic, "cell", "p"); ok || reason != "shed-static" {
		t.Fatalf("new-static at shed-static: ok=%v reason=%q", ok, reason)
	}
	steer(t, lg, link, 0.99) // shed-mobile band
	if err := sim.RunUntil(2.5); err != nil {
		t.Fatal(err)
	}
	if ok, _ := c.AllowSetup(classHandoff, "cell", "p"); !ok {
		t.Fatal("handoff shed at shed-mobile")
	}
	if ok, reason := c.AllowSetup(ClassNewMobile, "cell", "p"); ok || reason != "shed-mobile" {
		t.Fatalf("new-mobile at shed-mobile: ok=%v reason=%q", ok, reason)
	}
	if ok, _ := c.AllowSetup(ClassNewStatic, "cell", "p"); ok {
		t.Fatal("new-static admitted at shed-mobile")
	}
	if c.Sheds != 3 {
		t.Fatalf("Sheds = %d, want 3", c.Sheds)
	}
	// Unmonitored cells are never shed by stage.
	if ok, _ := c.AllowSetup(ClassNewStatic, "elsewhere", "p"); !ok {
		t.Fatal("setup shed in an unmonitored cell")
	}
}

func TestTokenBucketMetersDuringOverload(t *testing.T) {
	pol := fastPol()
	pol.BucketRate = 1 // 1 token/s
	pol.BucketBurst = 2
	sim, lg, c, link := oneCell(t, pol, Hooks{})
	// Below overload the bucket is inert.
	for i := 0; i < 5; i++ {
		if ok, _ := c.AllowSetup(ClassNewStatic, "cell", "p"); !ok {
			t.Fatal("bucket active while the cell is normal")
		}
	}
	steer(t, lg, link, 0.86) // degrade band: bucket armed, starts full
	if err := sim.RunUntil(1.5); err != nil {
		t.Fatal(err)
	}
	allowed := 0
	for i := 0; i < 5; i++ {
		if ok, reason := c.AllowSetup(ClassNewMobile, "cell", "p"); ok {
			allowed++
		} else if reason != "bucket" {
			t.Fatalf("refusal reason = %q, want bucket", reason)
		}
	}
	if allowed != 2 {
		t.Fatalf("burst admitted %d setups, want 2", allowed)
	}
	// Refill at 1 token/s: two sim-seconds later two more pass.
	if err := sim.RunUntil(3.5); err != nil {
		t.Fatal(err)
	}
	allowed = 0
	for i := 0; i < 5; i++ {
		if ok, _ := c.AllowSetup(ClassNewMobile, "cell", "p"); ok {
			allowed++
		}
	}
	if allowed != 2 {
		t.Fatalf("refill admitted %d setups, want 2", allowed)
	}
}

func TestPressureExcludesAdaptableExcess(t *testing.T) {
	// A connection's Cur above Min is reclaimable headroom, not pressure.
	b := topology.NewBackbone()
	if _, err := b.AddNode(topology.Node{ID: "bs"}); err != nil {
		t.Fatal(err)
	}
	if _, err := b.AddNode(topology.Node{ID: "air"}); err != nil {
		t.Fatal(err)
	}
	if err := b.AddDuplex(topology.Link{From: "bs", To: "air", Capacity: 1e6, Wireless: true}); err != nil {
		t.Fatal(err)
	}
	link := b.Link("bs", "air")
	sim := des.New()
	lg := admission.NewLedger(b)
	c := NewController(sim, lg, eventbus.New(sim), fastPol(), Hooks{})
	c.Start([]CellLink{{Cell: "cell", Link: link.ID}})
	if got := c.pressure(link.ID); got != 0 {
		t.Fatalf("idle pressure = %g, want 0", got)
	}
	if err := lg.Link(link.ID).SetAdvance(500e3); err != nil {
		t.Fatal(err)
	}
	if got := c.pressure(link.ID); got != 0.5 {
		t.Fatalf("pressure = %g, want 0.5", got)
	}
	if got := c.pressure("no-such-link"); got != 0 {
		t.Fatalf("unknown-link pressure = %g, want 0", got)
	}
}
