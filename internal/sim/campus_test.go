package sim

import (
	"context"
	"math"
	"reflect"
	"testing"

	"armnet/internal/core"
	"armnet/internal/reserve"
)

func TestCampusComparison(t *testing.T) {
	results, _, err := RunCampusComparison(context.Background(), CampusConfig{Config: core.Config{Seed: 3}, Portables: 20, Duration: 1200}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 3 {
		t.Fatalf("results = %d", len(results))
	}
	byMode := map[core.ReservationMode]CampusResult{}
	for _, r := range results {
		byMode[r.Mode] = r
		if r.Handoffs < 50 {
			t.Fatalf("mode %s: only %d handoffs", r.Mode, r.Handoffs)
		}
	}
	pred := byMode[core.ModePredictive]
	brute := byMode[core.ModeBruteForce]
	none := byMode[core.ModeNone]
	// Brute force places far more reservations than predictive.
	if brute.AdvanceReservations <= pred.AdvanceReservations {
		t.Fatalf("brute force reservations (%d) not above predictive (%d)",
			brute.AdvanceReservations, pred.AdvanceReservations)
	}
	// Mode none places none and every handoff is a pool claim.
	if none.AdvanceReservations != 0 {
		t.Fatalf("mode none placed %d reservations", none.AdvanceReservations)
	}
	if none.PredictedShare != 0 {
		t.Fatalf("mode none predicted share = %v", none.PredictedShare)
	}
	// Predictive mode gets a meaningful fraction of handoffs onto the
	// fast (reserved) path with lower latency.
	if pred.PredictedShare <= 0.1 {
		t.Fatalf("predicted share = %v, want > 0.1", pred.PredictedShare)
	}
	if pred.PredictedLatency >= pred.UnpredictedLatency {
		t.Fatalf("predicted latency %v not below unpredicted %v",
			pred.PredictedLatency, pred.UnpredictedLatency)
	}
}

// TestCampusDefaultsReplaceNaN: a NaN float field of CampusConfig takes
// its default as zero does, rather than reaching the walk (a NaN b_min
// used to book connections into the ledger).
func TestCampusDefaultsReplaceNaN(t *testing.T) {
	nan := math.NaN()
	got := CampusConfig{Duration: nan, Dwell: nan, BMin: nan, BMax: nan}.withDefaults()
	if want := (CampusConfig{}).withDefaults(); !reflect.DeepEqual(got, want) {
		t.Fatalf("NaN fields defaulted to %+v, want %+v", got, want)
	}
}

func TestErlangBKnownValues(t *testing.T) {
	// Classic table values.
	cases := []struct {
		rho  float64
		c    int
		want float64
	}{
		{1, 1, 0.5},
		{1, 2, 0.2},
		{5, 5, 0.2849},
		{10, 10, 0.2146},
	}
	for _, tc := range cases {
		got := ErlangB(tc.rho, tc.c)
		if math.Abs(got-tc.want) > 5e-4 {
			t.Errorf("ErlangB(%v, %d) = %v, want %v", tc.rho, tc.c, got, tc.want)
		}
	}
	if ErlangB(5, 0) != 1 {
		t.Error("no servers must block everything")
	}
	if ErlangB(0, 5) != 0 {
		t.Error("no load must block nothing")
	}
}

func TestFigure6MatchesErlangBInDegenerateCase(t *testing.T) {
	// One class, b=1, no handoffs (h=0), no reservation: each cell is an
	// independent M/M/c/c queue, so measured P_b must match Erlang B.
	classes := []reserve.ClassState{{Bandwidth: 1, Mu: 5, Handoff: 0}}
	const capacity = 10
	const lambda = 30.0 // offered load = 30/5 = 6 Erlangs on 10 servers
	r, err := runFigure6(figure6Config{
		Seed:     13,
		capacity: capacity,
		T:        0.05,
		Static:   true, StaticReserve: 0,
		Horizon: 600,
		classes: classes,
		lambdas: []float64{lambda},
	})
	if err != nil {
		t.Fatal(err)
	}
	want := ErlangB(lambda/5, capacity)
	if r.NewArrivals < 20000 {
		t.Fatalf("arrivals = %d", r.NewArrivals)
	}
	if math.Abs(r.Pb-want) > 0.015 {
		t.Fatalf("simulated P_b = %v, Erlang B = %v", r.Pb, want)
	}
	if r.HandoffAttempts != 0 {
		t.Fatalf("handoffs occurred with h=0: %d", r.HandoffAttempts)
	}
}
