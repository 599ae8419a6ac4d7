package mobility

import (
	"fmt"
	"slices"
	"testing"

	"armnet/internal/randx"
	"armnet/internal/topology"
)

// randomWalkReference is RandomWalk as first written: walkers append to
// one trace, look their cell up by ID on every hop, and the whole trace
// is stable-sorted by time at the end.
func randomWalkReference(u *topology.Universe, portables []string, meanDwell, horizon float64, rng *randx.Rand) *Trace {
	cells := u.Cells()
	out := &Trace{}
	for _, id := range portables {
		t := rng.Float64() * meanDwell
		w := newWalker(id, cells[rng.Intn(len(cells))].ID, t, out)
		for {
			t += rng.Exp(1 / meanDwell)
			if t > horizon {
				break
			}
			nbs := u.Cell(w.at).Neighbors()
			if len(nbs) == 0 {
				continue
			}
			w.moveTo(nbs[rng.Intn(len(nbs))], t)
		}
	}
	out.sort()
	return out
}

// stableByTime is "generate, then sort": the runs one after another,
// stable-sorted by time.
func stableByTime(gen []Move) []Move {
	out := slices.Clone(gen)
	slices.SortStableFunc(out, func(a, b Move) int {
		switch {
		case a.Time < b.Time:
			return -1
		case b.Time < a.Time:
			return 1
		}
		return 0
	})
	return out
}

// TestRandomWalkMatchesSortedReference holds RandomWalk's merged walks to
// the generate-then-sort reference, move for move, over 250 seeds on the
// campus and on a grid, with the bench's 48 portables on some seeds.
func TestRandomWalkMatchesSortedReference(t *testing.T) {
	campus, err := topology.BuildCampus()
	if err != nil {
		t.Fatal(err)
	}
	grid, err := topology.BuildGrid(2, 12, 0)
	if err != nil {
		t.Fatal(err)
	}
	for seed := int64(0); seed < 250; seed++ {
		env, n := campus, 8
		if seed%2 == 1 {
			env = grid
		}
		if seed%25 == 0 {
			n = 48
		}
		names := make([]string, n)
		for i := range names {
			names[i] = fmt.Sprintf("p%02d", n-i) // IDs run against walker order
		}
		got, err := RandomWalk(env.Universe, names, 30, 600, randx.New(seed))
		if err != nil {
			t.Fatal(err)
		}
		want := randomWalkReference(env.Universe, names, 30, 600, randx.New(seed))
		if !slices.Equal(got.Moves, want.Moves) {
			t.Fatalf("seed %d: RandomWalk's %d moves differ from the sorted reference's %d", seed, len(got.Moves), len(want.Moves))
		}
	}
}

// TestMergeRunsMatchesStableSort holds mergeRuns to the stable sort on
// runs built to tie: times drawn from a handful of values, so moves tie
// across runs and within one run, with empty runs among them and
// portable IDs that sort against run order — a merge that breaks a tie
// by portable ID, or by anything but generation order, fails.
func TestMergeRunsMatchesStableSort(t *testing.T) {
	// By hand: three runs, every time shared, IDs in reverse run order.
	gen := []Move{
		{Portable: "z", To: "a", Time: 1}, {Portable: "z", From: "a", To: "b", Time: 2}, {Portable: "z", From: "b", To: "c", Time: 2},
		{Portable: "m", To: "b", Time: 1}, {Portable: "m", From: "b", To: "a", Time: 1},
		{Portable: "a", To: "c", Time: 0}, {Portable: "a", From: "c", To: "b", Time: 2},
	}
	ends := []int{3, 3, 5, 7} // run 1 is empty
	if got, want := mergeRuns(gen, ends), stableByTime(gen); !slices.Equal(got, want) {
		t.Fatalf("hand-built runs merge to\n%v\nstable sort\n%v", got, want)
	}
	if got := mergeRuns(nil, []int{0, 0}); got != nil {
		t.Fatalf("no moves merge to %v", got)
	}

	ties := 0
	for seed := int64(0); seed < 300; seed++ {
		rng := randx.New(seed)
		var gen []Move
		var ends []int
		for r, k := 0, 1+rng.Intn(8); r < k; r++ {
			id := fmt.Sprintf("w%d", rng.Intn(10))
			t := 0.0
			for i, n := 0, rng.Intn(6); i < n; i++ {
				t += float64(rng.Intn(3)) // 0 ties within the run
				gen = append(gen, Move{Portable: id, To: topology.CellID(fmt.Sprint(i)), Time: t})
			}
			ends = append(ends, len(gen))
		}
		got, want := mergeRuns(gen, ends), stableByTime(gen)
		if !slices.Equal(got, want) {
			t.Fatalf("seed %d: runs %v (ends %v) merge to\n%v\nstable sort\n%v", seed, gen, ends, got, want)
		}
		for i := 1; i < len(want); i++ {
			if want[i].Time == want[i-1].Time && want[i].Portable != want[i-1].Portable {
				ties++
			}
		}
	}
	if ties < 300 {
		t.Fatalf("only %d ties across runs in 300 draws", ties)
	}
}
