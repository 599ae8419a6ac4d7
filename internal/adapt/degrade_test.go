package adapt

import (
	"math"
	"testing"

	"armnet/internal/qos"
)

func TestDegradeCapsAtMinAndFreesExcess(t *testing.T) {
	sim, _, mgr, _ := rig(t, []struct {
		id  string
		mob qos.Mobility
	}{{"a", qos.Static}, {"b", qos.Static}})
	if err := sim.RunUntil(120); err != nil {
		t.Fatal(err)
	}
	if got, _ := row(t, mgr, "a"); got <= 100e3 {
		t.Fatalf("precondition: a did not adapt above b_min (%v)", got)
	}
	if !mgr.Degrade(mgr.conns["a"]) {
		t.Fatal("Degrade refused an adaptable static connection")
	}
	if got, _ := row(t, mgr, "a"); got != 100e3 {
		t.Fatalf("degraded allocation = %v, want b_min", got)
	}
	if _, degraded := row(t, mgr, "a"); !degraded {
		t.Fatal("degraded flag not set")
	}
	// The freed bandwidth must NOT be gobbled by the survivor: the
	// protocol advertises excess from reserved minima, so the survivor
	// keeps its converged share and the reclaimed rate stays free for
	// the admissions the cascade was run for.
	if err := sim.RunUntil(300); err != nil {
		t.Fatal(err)
	}
	if got, _ := row(t, mgr, "b"); math.Abs(got-800e3) > 1e3 {
		t.Fatalf("survivor allocation = %v, want its converged 800k share", got)
	}
	// The cap sticks even while neighbors keep adapting: any UPDATE
	// still in flight for a must not re-raise it.
	if got, _ := row(t, mgr, "a"); got != 100e3 {
		t.Fatalf("degraded allocation drifted to %v", got)
	}
}

func TestDegradeRefusals(t *testing.T) {
	sim, _, mgr, _ := rig(t, []struct {
		id  string
		mob qos.Mobility
	}{{"s", qos.Static}, {"m", qos.Mobile}})
	if err := sim.RunUntil(60); err != nil {
		t.Fatal(err)
	}
	if mgr.Degrade(mgr.conns["m"]) {
		t.Fatal("Degrade accepted a mobile connection")
	}
	if !mgr.Degrade(mgr.conns["s"]) {
		t.Fatal("first Degrade refused")
	}
	if mgr.Degrade(mgr.conns["s"]) {
		t.Fatal("second Degrade reported a fresh cap")
	}
}

func TestRestoreRejoinsAdaptation(t *testing.T) {
	sim, _, mgr, _ := rig(t, []struct {
		id  string
		mob qos.Mobility
	}{{"a", qos.Static}})
	if err := sim.RunUntil(60); err != nil {
		t.Fatal(err)
	}
	if !mgr.Degrade(mgr.conns["a"]) {
		t.Fatal("Degrade refused")
	}
	if !mgr.Restore(mgr.conns["a"]) {
		t.Fatal("Restore refused")
	}
	if _, degraded := row(t, mgr, "a"); degraded {
		t.Fatal("Restore did not lift the cap")
	}
	if mgr.Restore(mgr.conns["a"]) {
		t.Fatal("second Restore reported a lifted cap")
	}
	if err := sim.RunUntil(240); err != nil {
		t.Fatal(err)
	}
	if got, _ := row(t, mgr, "a"); got <= 100e3 {
		t.Fatalf("restored connection stuck at %v, want re-growth", got)
	}
}

func TestMobilityFlipClearsDegradeCap(t *testing.T) {
	sim, _, mgr, _ := rig(t, []struct {
		id  string
		mob qos.Mobility
	}{{"a", qos.Static}})
	if err := sim.RunUntil(60); err != nil {
		t.Fatal(err)
	}
	if !mgr.Degrade(mgr.conns["a"]) {
		t.Fatal("Degrade refused")
	}
	// Mobile connections sit at b_min anyway; the cap must not survive
	// the round trip back to static and silently pin the connection.
	if err := mgr.SetMobility(mgr.conns["a"], qos.Mobile); err != nil {
		t.Fatal(err)
	}
	if _, degraded := row(t, mgr, "a"); degraded {
		t.Fatal("degrade cap survived the flip to mobile")
	}
	if err := mgr.SetMobility(mgr.conns["a"], qos.Static); err != nil {
		t.Fatal(err)
	}
	if err := sim.RunUntil(240); err != nil {
		t.Fatal(err)
	}
	if got, _ := row(t, mgr, "a"); got <= 100e3 {
		t.Fatalf("allocation after flip cycle = %v, want growth", got)
	}
}

// TestMobilityFlipRacesCapacityChange pins the stale-UPDATE guard: a
// capacity change starts adaptation sessions; mid-flight, the connection
// flips to mobile (allocation forced to b_min and the session removed).
// The in-flight UPDATE committing later must not re-raise the allocation.
func TestMobilityFlipRacesCapacityChange(t *testing.T) {
	sim, _, mgr, route := rig(t, []struct {
		id  string
		mob qos.Mobility
	}{{"a", qos.Static}, {"b", qos.Static}})
	if err := sim.RunUntil(120); err != nil {
		t.Fatal(err)
	}
	// Kick sessions via a capacity drop, then flip before they settle:
	// the protocol's messages for "a" are now stale.
	if err := mgr.CapacityChanged(route.Links[1].ID, 800e3); err != nil {
		t.Fatal(err)
	}
	if err := mgr.SetMobility(mgr.conns["a"], qos.Mobile); err != nil {
		t.Fatal(err)
	}
	if err := sim.RunUntil(400); err != nil {
		t.Fatal(err)
	}
	if got, _ := row(t, mgr, "a"); got != 100e3 {
		t.Fatalf("mobile allocation = %v, want b_min: a stale UPDATE re-raised it", got)
	}
	// The survivor absorbs the whole remaining excess (800k - 2×100k
	// minima = 600k excess, capped by its own demand headroom 900k).
	if got, _ := row(t, mgr, "b"); math.Abs(got-700e3) > 1e3 {
		t.Fatalf("survivor allocation = %v, want 700k", got)
	}
}

func TestPoolFractionClampBoundaries(t *testing.T) {
	const cap = 1.6e6
	cases := []struct {
		name            string
		alloc, min, max float64
		want            float64
	}{
		// Exactly at the 5% floor and the 20% ceiling: no clamping.
		{"at floor", 0.05 * cap, 0.05, 0.20, 0.05},
		{"at ceiling", 0.20 * cap, 0.05, 0.20, 0.20},
		// One part in a million inside the band stays untouched.
		{"just above floor", 0.05 * cap * (1 + 1e-6), 0.05, 0.20, 0.05 * (1 + 1e-6)},
		{"just below ceiling", 0.20 * cap * (1 - 1e-6), 0.05, 0.20, 0.20 * (1 - 1e-6)},
		// Outside the band clamps.
		{"below floor", 0.05 * cap * (1 - 1e-6), 0.05, 0.20, 0.05},
		{"above ceiling", 0.20 * cap * (1 + 1e-6), 0.05, 0.20, 0.20},
		{"zero alloc", 0, 0.05, 0.20, 0.05},
		{"full capacity", cap, 0.05, 0.20, 0.20},
		// Degenerate bands.
		{"negative floor treated as zero", -1, -0.1, 0.20, 0},
		{"ceiling below floor collapses", 0.5 * cap, 0.10, 0.05, 0.10},
		{"zero capacity yields floor", 1, 0.05, 0.20, 0.05},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			capacity := cap
			if tc.name == "zero capacity yields floor" {
				capacity = 0
			}
			got := PoolFraction(tc.alloc, capacity, tc.min, tc.max)
			if math.Abs(got-tc.want) > 1e-12 {
				t.Fatalf("PoolFraction(%g, %g, %g, %g) = %v, want %v",
					tc.alloc, capacity, tc.min, tc.max, got, tc.want)
			}
		})
	}
}
