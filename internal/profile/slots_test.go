package profile

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// mapSlotSeries is slotSeries over the slot-count maps the dense counts
// replaced, kept as the test-only reference: every slot seen, from the
// least to the greatest key, interior empty slots included.
func mapSlotSeries(dep, arr map[int64]int) []float64 {
	slots := map[int64]float64{}
	for s, n := range dep {
		slots[s] += float64(n)
	}
	for s, n := range arr {
		slots[s] += float64(n)
	}
	if len(slots) == 0 {
		return nil
	}
	lo, hi := int64(math.MaxInt64), int64(math.MinInt64)
	for s := range slots {
		lo, hi = min(lo, s), max(hi, s)
	}
	out := make([]float64, 0, hi-lo+1)
	for s := lo; s <= hi; s++ {
		out = append(out, slots[s])
	}
	return out
}

// TestSlotCountsMatchMap holds a cell profile's dense slot counts to the
// maps they replaced over seeded departures and arrivals whose times
// jump back before the first slot seen, forward past the last and land
// inside, negative times included: after every record, DeparturesIn of
// every slot in and around the span, RecentDepartures and
// RecentArrivals at times across it, and the slot series Classify reads
// equal the maps' answers. A count that dropped a slot before the first
// one seen, or set the span's start wrong, reads another slot's count.
func TestSlotCountsMatchMap(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		c := NewCellProfile("C", 50, 60)
		dep, arr := map[int64]int{}, map[int64]int{}
		center := float64(rng.Intn(2000) - 1000)
		for step := 0; step < 200; step++ {
			tm := center + (rng.Float64()-0.5)*float64(60*(1+rng.Intn(40)))
			if rng.Intn(2) == 0 {
				c.RecordDeparture(Handoff{Prev: "P", From: "C", To: "N", Time: tm})
				dep[c.Slot(tm)]++
			} else {
				arrive(c, "p", tm)
				arr[c.Slot(tm)]++
			}
			if got, want := slotSeries(c), mapSlotSeries(dep, arr); !slices.Equal(got, want) {
				t.Fatalf("seed %d step %d: slot series %v, maps %v", seed, step, got, want)
			}
			s0 := c.Slot(tm)
			for s := s0 - 45; s <= s0+45; s++ {
				if got := c.DeparturesIn(s); got != dep[s] {
					t.Fatalf("seed %d step %d: DeparturesIn(%d) = %d, map %d", seed, step, s, got, dep[s])
				}
			}
			at := tm + (rng.Float64()-0.5)*1200
			recent := func(m map[int64]int) []int {
				out := make([]int, 4)
				for i := range out {
					out[3-i] = m[c.Slot(at)-int64(i)]
				}
				return out
			}
			if got, want := c.RecentDepartures(at, 4), recent(dep); !slices.Equal(got, want) {
				t.Fatalf("seed %d step %d: RecentDepartures(%v) = %v, map %v", seed, step, at, got, want)
			}
			if got, want := c.RecentArrivals(at, 4), recent(arr); !slices.Equal(got, want) {
				t.Fatalf("seed %d step %d: RecentArrivals(%v) = %v, map %v", seed, step, at, got, want)
			}
		}
	}
}
