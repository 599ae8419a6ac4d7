package maxmin

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"armnet/internal/randx"
)

func TestWaterFillSingleLink(t *testing.T) {
	p := Problem{
		Capacity: map[string]float64{"l": 9},
		Conns: []Conn{
			{ID: "a", Path: []string{"l"}, Demand: Inf},
			{ID: "b", Path: []string{"l"}, Demand: Inf},
			{ID: "c", Path: []string{"l"}, Demand: Inf},
		},
	}
	a, err := WaterFill(p)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"a", "b", "c"} {
		if math.Abs(a[id]-3) > 1e-9 {
			t.Fatalf("rate[%s] = %v, want 3", id, a[id])
		}
	}
	if err := p.isMaxMin(a, 1e-9); err != nil {
		t.Fatal(err)
	}
}

func TestWaterFillDemandCap(t *testing.T) {
	p := Problem{
		Capacity: map[string]float64{"l": 9},
		Conns: []Conn{
			{ID: "small", Path: []string{"l"}, Demand: 1},
			{ID: "big", Path: []string{"l"}, Demand: Inf},
		},
	}
	a, err := WaterFill(p)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(a["small"]-1) > 1e-9 || math.Abs(a["big"]-8) > 1e-9 {
		t.Fatalf("alloc = %v, want small=1 big=8", a)
	}
	if err := p.isMaxMin(a, 1e-9); err != nil {
		t.Fatal(err)
	}
}

func TestWaterFillClassicTandem(t *testing.T) {
	// The textbook example: three links, a long connection plus locals.
	// L1 cap 10, L2 cap 4, L3 cap 8; conn long on all three, x on L1,
	// y on L2, z on L3. Maxmin: long=2 (L2 bottleneck with y), y=2,
	// x=8, z=6.
	p := Problem{
		Capacity: map[string]float64{"L1": 10, "L2": 4, "L3": 8},
		Conns: []Conn{
			{ID: "long", Path: []string{"L1", "L2", "L3"}, Demand: Inf},
			{ID: "x", Path: []string{"L1"}, Demand: Inf},
			{ID: "y", Path: []string{"L2"}, Demand: Inf},
			{ID: "z", Path: []string{"L3"}, Demand: Inf},
		},
	}
	a, err := WaterFill(p)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{"long": 2, "x": 8, "y": 2, "z": 6}
	for id, w := range want {
		if math.Abs(a[id]-w) > 1e-9 {
			t.Fatalf("rate[%s] = %v, want %v (full %v)", id, a[id], w, a)
		}
	}
	if err := p.isMaxMin(a, 1e-9); err != nil {
		t.Fatal(err)
	}
}

func TestWaterFillZeroCapacity(t *testing.T) {
	p := Problem{
		Capacity: map[string]float64{"l": 0},
		Conns:    []Conn{{ID: "a", Path: []string{"l"}, Demand: Inf}},
	}
	a, err := WaterFill(p)
	if err != nil {
		t.Fatal(err)
	}
	if a["a"] != 0 {
		t.Fatalf("rate on dead link = %v", a["a"])
	}
}

func TestValidation(t *testing.T) {
	bad := []Problem{
		{Capacity: map[string]float64{"l": -1}, Conns: []Conn{{ID: "a", Path: []string{"l"}}}},
		{Capacity: map[string]float64{"l": 1}, Conns: []Conn{{ID: "a", Path: nil}}},
		{Capacity: map[string]float64{"l": 1}, Conns: []Conn{{ID: "a", Path: []string{"ghost"}}}},
		{Capacity: map[string]float64{"l": 1}, Conns: []Conn{{ID: "a", Path: []string{"l"}, Demand: -1}}},
		{Capacity: map[string]float64{"l": 1}, Conns: []Conn{
			{ID: "a", Path: []string{"l"}, Demand: 1}, {ID: "a", Path: []string{"l"}, Demand: 1}}},
	}
	for i, p := range bad {
		if _, err := WaterFill(p); err == nil {
			t.Errorf("case %d: invalid problem accepted", i)
		}
	}
}

func TestFairShareCases(t *testing.T) {
	// N = 0.
	if got := fairShare(10, nil, nil); got != 10 {
		t.Fatalf("empty link share = %v", got)
	}
	// All restricted: cap - sum + max.
	got := fairShare(10, []float64{2, 3}, []bool{true, true})
	if math.Abs(got-(10-5+3)) > 1e-12 {
		t.Fatalf("all-restricted share = %v, want 8", got)
	}
	// Mixed: (cap - restricted)/(free).
	got = fairShare(10, []float64{2, 0, 0}, []bool{true, false, false})
	if math.Abs(got-4) > 1e-12 {
		t.Fatalf("mixed share = %v, want 4", got)
	}
}

func TestAdvertisedRateFixpoint(t *testing.T) {
	// cap 10, recorded [10, 4]: b restricted at 4, a unrestricted -> 6.
	got := advertisedRate(10, []float64{10, 4})
	if math.Abs(got-6) > 1e-12 {
		t.Fatalf("advertised = %v, want 6", got)
	}
	// All zero recorded: everyone restricted below the level; the rate
	// must offer the full capacity to a riser.
	got = advertisedRate(10, []float64{0, 0})
	if math.Abs(got-10) > 1e-12 {
		t.Fatalf("advertised = %v, want 10", got)
	}
	if got := advertisedRate(5, nil); got != 5 {
		t.Fatalf("empty advertised = %v", got)
	}
}

func TestSyncMatchesWaterFillTandem(t *testing.T) {
	p := Problem{
		Capacity: map[string]float64{"L1": 10, "L2": 4, "L3": 8},
		Conns: []Conn{
			{ID: "long", Path: []string{"L1", "L2", "L3"}, Demand: Inf},
			{ID: "x", Path: []string{"L1"}, Demand: Inf},
			{ID: "y", Path: []string{"L2"}, Demand: Inf},
			{ID: "z", Path: []string{"L3"}, Demand: Inf},
		},
	}
	ref, err := WaterFill(p)
	if err != nil {
		t.Fatal(err)
	}
	res, err := SyncSolver{}.Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("sync did not converge in %d rounds", res.Rounds)
	}
	if d := ref.MaxDiff(res.Allocation); d > 1e-6 {
		t.Fatalf("sync vs waterfill diff %v: %v vs %v", d, res.Allocation, ref)
	}
}

func TestSyncResumeAfterCapacityChange(t *testing.T) {
	p := Problem{
		Capacity: map[string]float64{"L": 10},
		Conns: []Conn{
			{ID: "a", Path: []string{"L"}, Demand: Inf},
			{ID: "b", Path: []string{"L"}, Demand: Inf},
		},
	}
	res1, err := SyncSolver{}.Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	p.Capacity["L"] = 6
	res2, err := SyncSolver{}.resume(p, res1.Allocation)
	if err != nil {
		t.Fatal(err)
	}
	if !res2.Converged {
		t.Fatal("resume did not converge")
	}
	for _, id := range []string{"a", "b"} {
		if math.Abs(res2.Allocation[id]-3) > 1e-6 {
			t.Fatalf("after shrink rate[%s] = %v, want 3", id, res2.Allocation[id])
		}
	}
}

func randomProblem(rng *randx.Rand, nLinks, nConns int) Problem {
	p := Problem{Capacity: map[string]float64{}}
	links := make([]string, nLinks)
	for i := range links {
		links[i] = fmt.Sprintf("l%d", i)
		p.Capacity[links[i]] = 1 + rng.Float64()*20
	}
	for i := 0; i < nConns; i++ {
		pathLen := 1 + rng.Intn(nLinks)
		perm := rng.Perm(nLinks)[:pathLen]
		path := make([]string, pathLen)
		for j, k := range perm {
			path[j] = links[k]
		}
		demand := Inf
		if rng.Bernoulli(0.4) {
			demand = rng.Float64() * 10
		}
		p.Conns = append(p.Conns, Conn{ID: fmt.Sprintf("c%d", i), Path: path, Demand: demand})
	}
	return p
}

// Property: WaterFill always satisfies the maxmin oracle.
func TestQuickWaterFillIsMaxMin(t *testing.T) {
	f := func(seed int64) bool {
		rng := randx.New(seed)
		p := randomProblem(rng, 1+rng.Intn(5), 1+rng.Intn(8))
		a, err := WaterFill(p)
		if err != nil {
			return false
		}
		if err := p.isMaxMin(a, 1e-6); err != nil {
			t.Logf("seed %d: %v (alloc %v)", seed, err, a)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: the synchronous distributed iteration converges to the
// centralized solution on random instances (Theorem 1's claim for the
// round-abstracted protocol).
func TestQuickSyncMatchesWaterFill(t *testing.T) {
	f := func(seed int64) bool {
		rng := randx.New(seed)
		p := randomProblem(rng, 1+rng.Intn(4), 1+rng.Intn(6))
		ref, err := WaterFill(p)
		if err != nil {
			return false
		}
		res, err := SyncSolver{MaxRounds: 400, Eps: 1e-10}.Solve(p)
		if err != nil {
			return false
		}
		if !res.Converged {
			t.Logf("seed %d: no convergence", seed)
			return false
		}
		if d := ref.MaxDiff(res.Allocation); d > 1e-6 {
			t.Logf("seed %d: diff %v\nsync %v\nref  %v", seed, d, res.Allocation, ref)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}
