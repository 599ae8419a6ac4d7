package sim

import (
	"context"
	"testing"
)

func TestTthSensitivity(t *testing.T) {
	points, _, err := RunTthSensitivity(context.Background(), CampusConfig{Seed: 5, Portables: 16, Duration: 1200, Dwell: 120}, []float64{30, 600}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 2 {
		t.Fatalf("points = %d", len(points))
	}
	small, large := points[0], points[1]
	// With dwell 120 s, a 30 s threshold flips portables static between
	// moves, clearing their advance reservations — so their next handoff
	// is unpredicted (a pool claim). A 600 s threshold keeps them mobile
	// and reserved, so more handoffs ride the predicted fast path.
	if large.PredictedShare <= small.PredictedShare {
		t.Fatalf("predicted share did not grow with T_th: %v (600s) vs %v (30s)",
			large.PredictedShare, small.PredictedShare)
	}
	if small.PoolClaims <= large.PoolClaims {
		t.Fatalf("pool claims did not shrink with T_th: %d (30s) vs %d (600s)",
			small.PoolClaims, large.PoolClaims)
	}
	for _, p := range points {
		if p.Handoffs == 0 {
			t.Fatalf("T_th %v: no handoffs", p.Tth)
		}
	}
}

func TestGridScale(t *testing.T) {
	r, err := RunGrid(GridConfig{Seed: 2, Rows: 4, Cols: 6, Portables: 80, Duration: 1200})
	if err != nil {
		t.Fatal(err)
	}
	if r.Cells != 48 {
		t.Fatalf("cells = %d", r.Cells)
	}
	if r.Handoffs < 400 {
		t.Fatalf("handoffs = %d, want a busy building", r.Handoffs)
	}
	if r.Events < 1000 {
		t.Fatalf("events = %d", r.Events)
	}
	// A lightly loaded big building should lose essentially nothing.
	if r.DropRate > 0.05 {
		t.Fatalf("drop rate %v at light load", r.DropRate)
	}
	// Office occupants returning home make some handoffs predictable.
	if r.PredictedShare == 0 {
		t.Fatal("no predicted handoffs in an office building")
	}
}

func TestBoundsLooseBeatsRigidUnderFades(t *testing.T) {
	loose, rigid, err := RunBounds(BoundsConfig{Seed: 6, Users: 4, Duration: 1800})
	if err != nil {
		t.Fatal(err)
	}
	// Everyone fits at b_min under loose bounds.
	if loose.Admitted != 4 {
		t.Fatalf("loose admitted %d/4", loose.Admitted)
	}
	// Loose bounds never overcommit for long: the adaptation protocol
	// squeezes after every fade (allow in-flight settling slack).
	if loose.OvercommitFraction > 0.1 {
		t.Fatalf("loose overcommitted %.0f%% of the time", loose.OvercommitFraction*100)
	}
	// Rigid reservations cannot be squeezed: deep fades leave the link
	// overcommitted far longer.
	if rigid.OvercommitFraction <= loose.OvercommitFraction {
		t.Fatalf("rigid (%.3f) not worse than loose (%.3f)",
			rigid.OvercommitFraction, loose.OvercommitFraction)
	}
	// And loose bounds harvest more of the varying capacity.
	if loose.MeanUtilization <= rigid.MeanUtilization {
		t.Fatalf("loose utilization %.3f not above rigid %.3f",
			loose.MeanUtilization, rigid.MeanUtilization)
	}
}

func TestCorridorLinearPrediction(t *testing.T) {
	res, err := RunCorridor(9, 6, 200)
	if err != nil {
		t.Fatal(err)
	}
	if res.Transits < 300 {
		t.Fatalf("transits = %d", res.Transits)
	}
	// §6.1: knowing the previous cell, the next cell of a corridor is
	// predicted "easily" — demand near-perfect accuracy.
	if acc := res.Accuracy(); acc < 0.95 {
		t.Fatalf("corridor accuracy = %v, want >= 0.95", acc)
	}
}

func TestCampusRunsAreDeterministic(t *testing.T) {
	a, _, err := RunCampus(CampusConfig{Seed: 17, Portables: 14, Duration: 900}, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := RunCampus(CampusConfig{Seed: 17, Portables: 14, Duration: 900}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("same seed diverged:\n%+v\n%+v", a, b)
	}
	c, _, err := RunCampus(CampusConfig{Seed: 18, Portables: 14, Duration: 900}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if a == c {
		t.Fatal("different seeds produced identical runs")
	}
}
