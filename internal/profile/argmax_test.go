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

// TestArgmaxCellMatchesSortedReference draws count tables whose counts
// come from a small range, so most hold ties for the maximum, over cells
// numbered in an order unrelated to their IDs, with the empty ID (-1)
// among them. argmaxCell over all rows, over one <prev, cur> key, and
// argmaxCellAnyPrev's per-next sums must each pick what the sorted
// reference picks from the same counts as an ID-keyed map: a tie broken
// by number instead of ID fails it.
func TestArgmaxCellMatchesSortedReference(t *testing.T) {
	rng := randx.New(7)
	ties := 0
	for trial := 0; trial < 2000; trial++ {
		x := NewNumbering(nil)
		for _, i := range rng.Perm(10) {
			x.cell(topology.CellID(fmt.Sprintf("c%d", i)))
		}
		cell := func() int32 {
			if rng.Intn(20) == 0 {
				return -1
			}
			return int32(rng.Intn(10))
		}
		var t0 rows
		for i, n := 0, rng.Intn(12); i < n; i++ {
			t0.add(int32(rng.Intn(2)), int32(rng.Intn(2)), cell(), int32(1+rng.Intn(3)))
		}
		// Over all rows a next cell may have several rows, each offered
		// alone: the reference holds its largest.
		all, key, anyPrev := map[topology.CellID]int{}, map[topology.CellID]int{}, map[topology.CellID]int{}
		for _, r := range t0 {
			id := x.cellID(r.next)
			all[id] = max(all[id], int(r.n))
			if r.prev == 0 && r.cur == 1 {
				key[id] += int(r.n)
			}
			if r.cur == 1 {
				anyPrev[id] += int(r.n)
			}
		}
		for _, c := range []struct {
			name string
			ref  map[topology.CellID]int
			got  func() (int32, bool)
		}{
			{"all rows", all, func() (int32, bool) { return argmaxCell(x, t0, anyCell, anyCell) }},
			{"<0, 1>", key, func() (int32, bool) { return argmaxCell(x, t0, 0, 1) }},
			{"any prev", anyPrev, func() (int32, bool) { return argmaxCellAnyPrev(x, t0, 1) }},
		} {
			want := sortedArgmaxCell(c.ref)
			got, ok := c.got()
			if ok != (len(c.ref) > 0) || (ok && x.cellID(got) != want) {
				t.Fatalf("%s of %v: %q/%v, sorted reference %q", c.name, t0, x.cellID(got), ok, want)
			}
			top := 0
			for _, n := range c.ref {
				if n == c.ref[want] {
					top++
				}
			}
			if top > 1 {
				ties++
			}
		}
	}
	if ties < 600 {
		t.Fatalf("only %d of 6000 tables had a tie for the maximum", ties)
	}
}

func TestArgmaxCellAllocFree(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("race detector adds bookkeeping allocations")
	}
	x := NewNumbering(nil)
	var t0 rows
	for _, h := range []Handoff{
		{Prev: "cor-w1", From: "cor-w2", To: "cor-e1"}, {Prev: "cor-w1", From: "cor-w2", To: "lounge"},
		{Prev: "lounge", From: "cor-w2", To: "cor-e1"}, {Prev: "lounge", From: "cor-w2", To: "cor-w1"},
	} {
		t0.add(x.cell(h.Prev), x.cell(h.From), x.cell(h.To), 3)
	}
	w2 := x.lookup("cor-w2")
	for name, read := range map[string]func(){
		"argmaxCell":        func() { _, _ = argmaxCell(x, t0, x.lookup("cor-w1"), w2) },
		"argmaxCellAnyPrev": func() { _, _ = argmaxCellAnyPrev(x, t0, w2) },
	} {
		if got := testing.AllocsPerRun(1000, read); got != 0 {
			t.Errorf("%s allocates %v/op, want 0", name, got)
		}
	}
}
