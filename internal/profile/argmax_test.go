package profile

import (
	"fmt"
	"sort"
	"testing"

	"armnet/internal/raceflag"
	"armnet/internal/randx"
	"armnet/internal/topology"
)

// sortedArgmaxCell is the reference argmaxCell is checked against: the
// selection as first written, walking the keys in sorted order and
// keeping the first strictly larger count.
func sortedArgmaxCell(m map[topology.CellID]int) topology.CellID {
	var best topology.CellID
	bestN := -1
	ids := make([]topology.CellID, 0, len(m))
	for id := range m {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		if m[id] > bestN {
			best, bestN = id, m[id]
		}
	}
	return best
}

// TestArgmaxCellMatchesSortedReference draws maps whose counts come from
// a small range, so most maps hold ties for the maximum, and includes
// the empty map, the empty cell ID and counts at or below the -1 floor.
// Each map is asked many times, so Go's randomised map order gets the
// chance to present the tied keys in every order.
func TestArgmaxCellMatchesSortedReference(t *testing.T) {
	rng := randx.New(7)
	ties := 0
	for trial := 0; trial < 2000; trial++ {
		m := map[topology.CellID]int{}
		for i, n := 0, rng.Intn(8); i < n; i++ {
			id := topology.CellID(fmt.Sprintf("c%d", rng.Intn(10)))
			if rng.Intn(20) == 0 {
				id = ""
			}
			m[id] = rng.Intn(5) - 2
		}
		want := sortedArgmaxCell(m)
		top := 0
		for _, n := range m {
			if n == m[want] {
				top++
			}
		}
		if _, ok := m[want]; ok && top > 1 {
			ties++
		}
		for rep := 0; rep < 8; rep++ {
			if got := argmaxCell(m); got != want {
				t.Fatalf("argmaxCell(%v) = %q, sorted reference %q", m, got, want)
			}
		}
	}
	if ties < 200 {
		t.Fatalf("only %d of 2000 maps had a tie for the maximum", ties)
	}
}

func TestArgmaxCellAllocFree(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("race detector adds bookkeeping allocations")
	}
	m := map[topology.CellID]int{"cor-w1": 3, "cor-e1": 3, "lounge": 1}
	if got := testing.AllocsPerRun(1000, func() { _ = argmaxCell(m) }); got != 0 {
		t.Fatalf("argmaxCell allocates %v/op, want 0", got)
	}
}
