package predict

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"armnet/internal/profile"
	"armnet/internal/randx"
	"armnet/internal/topology"
)

func figure4(t *testing.T) (*topology.Environment, *Predictor) {
	t.Helper()
	env, err := topology.BuildFigure4("prof", []string{"s1", "s2", "s3"})
	if err != nil {
		t.Fatal(err)
	}
	return env, New(env.Universe, profile.ServerOptions{})
}

// record reports a handoff given by IDs ("" prev when unknown).
func record(p *Predictor, portable string, prev, from, to topology.CellID, t float64) {
	u := p.Universe
	p.RecordHandoff(p.Number(portable), u.Cell(prev), u.Cell(from), u.Cell(to), t)
}

// nextCell asks for a prediction by IDs.
func nextCell(p *Predictor, portable string, prev, cur topology.CellID) Decision {
	return p.NextCell(p.Number(portable), p.Universe.Cell(prev), p.Universe.Cell(cur))
}

// target is a decision's target ID, "" for none.
func target(d Decision) topology.CellID {
	if d.Target == nil {
		return ""
	}
	return d.Target.ID
}

func TestLevel1PortableProfileWins(t *testing.T) {
	_, p := figure4(t)
	// The professor's own history says C->D->A even though the crowd
	// goes D->B.
	for i := 0; i < 5; i++ {
		record(p, "prof", "C", "D", "A", float64(i))
	}
	for i := 0; i < 50; i++ {
		record(p, fmt.Sprintf("x%d", i), "C", "D", "E", float64(i))
	}
	d := nextCell(p, "prof", "C", "D")
	if d.Action != ActionReserve || target(d) != "A" || d.Level != LevelPortable {
		t.Fatalf("decision = %+v, want level-1 reserve A", d)
	}
}

func TestLevel2OfficeOccupantStays(t *testing.T) {
	_, p := figure4(t)
	// prof inside office A (regular occupant, no history): no advance
	// reservation anywhere.
	d := nextCell(p, "prof", "D", "A")
	if d.Action != ActionNoReserve {
		t.Fatalf("decision = %+v, want no-reserve for occupant at home", d)
	}
}

func TestLevel2NeighborOfficeNomination(t *testing.T) {
	_, p := figure4(t)
	// prof in corridor D with no portable history: neighboring office A
	// (occupant) is nominated.
	d := nextCell(p, "prof", "C", "D")
	if d.Action != ActionReserve || target(d) != "A" || d.Level != levelCell {
		t.Fatalf("decision = %+v, want level-2 reserve A", d)
	}
	// Student in corridor E: office B is the neighboring office.
	d = nextCell(p, "s1", "D", "E")
	if d.Action != ActionReserve || target(d) != "B" {
		t.Fatalf("decision = %+v, want reserve B", d)
	}
}

func TestLevel2AggregateHistory(t *testing.T) {
	_, p := figure4(t)
	// A stranger in corridor D with a crowd history toward E.
	for i := 0; i < 30; i++ {
		record(p, fmt.Sprintf("x%d", i), "C", "D", "E", float64(i))
	}
	d := nextCell(p, "stranger", "C", "D")
	if d.Action != ActionReserve || target(d) != "E" || d.Level != levelCell {
		t.Fatalf("decision = %+v, want level-2 reserve E", d)
	}
}

func TestLevel3Default(t *testing.T) {
	_, p := figure4(t)
	// Stranger in corridor with no history at all (and no office
	// membership): default.
	d := nextCell(p, "stranger", "C", "D")
	if d.Action != actionDefault {
		t.Fatalf("decision = %+v, want default", d)
	}
}

func TestUnknownCell(t *testing.T) {
	_, p := figure4(t)
	d := nextCell(p, "prof", "C", "nowhere")
	if d.Action != actionDefault {
		t.Fatalf("decision = %+v, want default for unknown cell", d)
	}
}

func TestPredictionMustBeNeighbor(t *testing.T) {
	_, p := figure4(t)
	// Poison the portable profile with a non-neighbor target (stale
	// history after a topology change): level 1 must be skipped.
	// B is a cell of the building but not a neighbor of D.
	srv := p.ServerFor("D")
	u := p.Universe
	for i := 0; i < 5; i++ {
		srv.RecordHandoff(p.Number("prof"), u.Cell("C").Index, u.Cell("D").Index, u.Cell("B").Index, float64(i))
	}
	d := nextCell(p, "prof", "C", "D")
	if target(d) == "B" {
		t.Fatalf("predicted non-neighbor: %+v", d)
	}
}

func TestCrossZoneProfileMigration(t *testing.T) {
	env, err := topology.BuildCampus()
	if err != nil {
		t.Fatal(err)
	}
	p := New(env.Universe, profile.ServerOptions{})
	// Portable crosses west -> east via cor-w2 -> cor-e1.
	record(p, "alice", "cor-w1", "cor-w2", "cor-e1", 1)
	alice, w1, w2 := p.Number("alice"), p.Universe.Cell("cor-w1").Index, p.Universe.Cell("cor-w2").Index
	if next, ok := p.Servers["east"].PredictByPortable(alice, w1, w2); !ok || p.cells[next].ID != "cor-e1" {
		t.Fatalf("east predicts %d/%v from alice's profile, want cor-e1", next, ok)
	}
	if next, ok := p.Servers["west"].PredictByPortable(alice, w1, w2); ok {
		t.Fatalf("west still predicts %s from alice's profile", p.cells[next].ID)
	}
}

func TestCafeteriaForecast(t *testing.T) {
	// Perfect line 2, 4, 6 -> 8.
	if got := CafeteriaForecast(2, 4, 6); math.Abs(got-8) > 1e-12 {
		t.Fatalf("forecast = %v, want 8", got)
	}
	// Flat 5, 5, 5 -> 5.
	if got := CafeteriaForecast(5, 5, 5); math.Abs(got-5) > 1e-12 {
		t.Fatalf("forecast = %v, want 5", got)
	}
	// Declining to negative clamps at 0.
	if got := CafeteriaForecast(9, 3, 0); got != 0 {
		t.Fatalf("forecast = %v, want clamp 0", got)
	}
}

func TestOneStepForecast(t *testing.T) {
	if OneStepForecast(7) != 7 {
		t.Fatal("one-step forecast broken")
	}
}

func TestSplitForecast(t *testing.T) {
	probs := map[topology.CellID]float64{"A": 0.5, "B": 0.25, "C": 0.25}
	got := SplitForecast(8, probs, []topology.CellID{"A", "B"})
	// Renormalized over {A, B}: A=2/3, B=1/3.
	if math.Abs(got["A"]-16.0/3) > 1e-9 || math.Abs(got["B"]-8.0/3) > 1e-9 {
		t.Fatalf("split = %v", got)
	}
	// Empty profile: uniform.
	got = SplitForecast(6, nil, []topology.CellID{"A", "B", "C"})
	for _, id := range []topology.CellID{"A", "B", "C"} {
		if math.Abs(got[id]-2) > 1e-12 {
			t.Fatalf("uniform split = %v", got)
		}
	}
	if got := SplitForecast(0, probs, []topology.CellID{"A"}); len(got) != 0 {
		t.Fatalf("zero total split = %v", got)
	}
	if got := SplitForecast(5, nil, nil); len(got) != 0 {
		t.Fatalf("no neighbors split = %v", got)
	}
}

// Property: CafeteriaForecast is translation-invariant (adding a constant
// to all three counts shifts the forecast by the same constant) and exact
// on lines.
func TestQuickCafeteriaLinearExact(t *testing.T) {
	f := func(a0 int8, slope int8) bool {
		base := abs(int(a0%50)) + 60 // keep counts positive
		s := int(slope % 10)
		n2, n1, n0 := base, base+s, base+2*s
		want := float64(base + 3*s)
		got := CafeteriaForecast(n2, n1, n0)
		return math.Abs(got-want) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}

// Property: SplitForecast conserves the total when every neighbor has
// positive probability.
func TestQuickSplitConservesTotal(t *testing.T) {
	f := func(seed int64, total uint8) bool {
		rng := randx.New(seed)
		neighbors := []topology.CellID{"A", "B", "C", "D"}
		probs := map[topology.CellID]float64{}
		for _, n := range neighbors {
			probs[n] = rng.Float64() + 0.01
		}
		tt := float64(total%50) + 1
		got := SplitForecast(tt, probs, neighbors)
		sum := 0.0
		for _, v := range got {
			sum += v
		}
		return math.Abs(sum-tt) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestCrashZoneForgetsLearnedProfiles(t *testing.T) {
	_, p := figure4(t)
	for i := 0; i < 10; i++ {
		record(p, "prof", "C", "D", "A", float64(i))
	}
	if d := nextCell(p, "prof", "C", "D"); d.Level != LevelPortable {
		t.Fatalf("pre-crash decision = %+v, want portable-profile level", d)
	}
	zone := p.Universe.Zones()[0]
	if err := p.CrashZone(zone); err != nil {
		t.Fatal(err)
	}
	if d := nextCell(p, "prof", "C", "D"); d.Level == LevelPortable {
		t.Fatal("portable profile survived the zone crash")
	}
	if err := p.CrashZone("no-such-zone"); err == nil {
		t.Fatal("CrashZone accepted an unknown zone")
	}
	// Histories rebuild after the warm restart.
	for i := 0; i < 10; i++ {
		record(p, "prof", "C", "D", "A", float64(20+i))
	}
	if d := nextCell(p, "prof", "C", "D"); d.Level != LevelPortable {
		t.Fatalf("post-rebuild decision = %+v, want portable-profile level", d)
	}
}
