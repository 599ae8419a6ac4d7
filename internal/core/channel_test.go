package core

import (
	"math"
	"testing"

	"armnet/internal/des"
	"armnet/internal/randx"
)

func TestCapacityProcessValidation(t *testing.T) {
	rng := randx.New(1)
	if _, err := newCapacityProcess(nil, 1, rng, nil, ""); err == nil {
		t.Error("empty levels accepted")
	}
	if _, err := newCapacityProcess([]float64{1e6, 0}, 1, rng, nil, ""); err == nil {
		t.Error("zero level accepted")
	}
	if _, err := newCapacityProcess([]float64{1e6}, 0, rng, nil, ""); err == nil {
		t.Error("zero dwell accepted")
	}
}

func TestCapacityProcessVisitsLevels(t *testing.T) {
	rng := randx.New(3)
	levels := []float64{1.6e6, 800e3, 400e3}
	cp, err := newCapacityProcess(levels, 1, rng, nil, "")
	if err != nil {
		t.Fatal(err)
	}
	if cp.capacity() != 1.6e6 {
		t.Fatalf("initial capacity = %v", cp.capacity())
	}
	sim := des.New()
	seen := map[float64]bool{}
	cp.attach(sim, func(c float64) { seen[c] = true })
	if err := sim.RunUntil(200); err != nil {
		t.Fatal(err)
	}
	for _, l := range levels {
		if !seen[l] && l != cp.capacity() && l != 1.6e6 {
			t.Errorf("level %v never visited", l)
		}
	}
	if len(seen) < 2 {
		t.Fatalf("capacity changes = %d levels, want >= 2", len(seen))
	}
}

func TestSingleLevelProcessIsStatic(t *testing.T) {
	rng := randx.New(3)
	cp, err := newCapacityProcess([]float64{1e6}, 1, rng, nil, "")
	if err != nil {
		t.Fatal(err)
	}
	sim := des.New()
	cp.attach(sim, func(float64) { t.Error("single-level process changed") })
	if err := sim.RunUntil(100); err != nil {
		t.Fatal(err)
	}
	if sim.Fired() != 0 {
		t.Fatal("single-level process scheduled events")
	}
}

func TestBlackoutForcesWorstLevelAndRestores(t *testing.T) {
	rng := randx.New(3)
	proc, err := newCapacityProcess([]float64{1.6e6, 800e3, 200e3}, 1000, rng, nil, "")
	if err != nil {
		t.Fatal(err)
	}
	sim := des.New()
	var changes []float64
	proc.attach(sim, func(c float64) { changes = append(changes, c) })
	sim.At(1, func() { proc.blackout(sim, 5) })
	if err := sim.RunUntil(2); err != nil {
		t.Fatal(err)
	}
	if got := proc.capacity(); got != 200e3 {
		t.Fatalf("capacity during blackout = %v, want worst level 200e3", got)
	}
	if err := sim.RunUntil(10); err != nil {
		t.Fatal(err)
	}
	if got := proc.capacity(); got != 1.6e6 {
		t.Fatalf("capacity after blackout = %v, want restored 1.6e6", got)
	}
	if len(changes) != 2 || changes[0] != 200e3 || changes[1] != 1.6e6 {
		t.Fatalf("onChange sequence = %v, want [200e3 1.6e6]", changes)
	}
}

func TestOverlappingBlackoutsExtend(t *testing.T) {
	rng := randx.New(3)
	proc, err := newCapacityProcess([]float64{1e6, 100e3}, 1000, rng, nil, "")
	if err != nil {
		t.Fatal(err)
	}
	sim := des.New()
	proc.attach(sim, nil)
	sim.At(1, func() { proc.blackout(sim, 4) })
	sim.At(3, func() { proc.blackout(sim, 6) }) // extends to t=9
	if err := sim.RunUntil(6); err != nil {
		t.Fatal(err)
	}
	if got := proc.capacity(); got != 100e3 {
		t.Fatalf("capacity = %v, first blackout's expiry ended the extended one", got)
	}
	if err := sim.RunUntil(20); err != nil {
		t.Fatal(err)
	}
	if got := proc.capacity(); got != 1e6 {
		t.Fatalf("capacity = %v after extended blackout, want 1e6", got)
	}
}

// TestCapacityProcessRejectsNonFinite: NaN fails every comparison, so a
// "reject when <= 0" test let a NaN level or dwell through, and +Inf
// passed it outright.
func TestCapacityProcessRejectsNonFinite(t *testing.T) {
	rng := randx.New(1)
	for _, bad := range []float64{math.NaN(), math.Inf(1)} {
		if _, err := newCapacityProcess([]float64{1e6, bad}, 1, rng, nil, ""); err == nil {
			t.Errorf("level %v accepted", bad)
		}
		if _, err := newCapacityProcess([]float64{1e6, 5e5}, bad, rng, nil, ""); err == nil {
			t.Errorf("dwell mean %v accepted", bad)
		}
	}
}
