package obs

import (
	"math"
	"testing"
)

// FuzzHistogramMerge checks the merge contract on arbitrary bucket
// shapes: matching bounds merge additively (counts, sum, total), any
// bound disagreement is rejected, and the receiver is untouched on
// rejection paths that fail before mutation.
func FuzzHistogramMerge(f *testing.F) {
	f.Add([]byte{3, 1, 2, 3, 3, 1, 2, 3, 5, 7}, false)
	f.Add([]byte{2, 1, 2, 3, 1, 2, 3}, true)
	f.Add([]byte{0}, false)
	f.Fuzz(func(t *testing.T, data []byte, perturb bool) {
		next := func() byte {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return b
		}
		build := func(n int) histSeries {
			h := histSeries{Name: "h", Bounds: make([]float64, n), Counts: make([]uint64, n+1)}
			edge := 0.0
			for i := range h.Bounds {
				edge += float64(next()%16) + 1 // strictly ascending
				h.Bounds[i] = edge
			}
			for i := range h.Counts {
				c := uint64(next())
				h.Counts[i] = c
				h.Count += c
				h.Sum += float64(c) * float64(i)
			}
			return h
		}
		n := int(next() % 8)
		a := build(n)
		b := build(n)
		if perturb && n > 0 {
			b.Bounds[int(next())%n] += 0.5
		}
		boundsMatch := len(a.Bounds) == len(b.Bounds)
		for i := range a.Bounds {
			if a.Bounds[i] != b.Bounds[i] {
				boundsMatch = false
			}
		}

		beforeCount, beforeSum := a.Count, a.Sum
		beforeCounts := append([]uint64(nil), a.Counts...)
		err := mergeHist(&a, b)
		if boundsMatch {
			if err != nil {
				t.Fatalf("matching bounds rejected: %v", err)
			}
			if a.Count != beforeCount+b.Count {
				t.Fatalf("count %d != %d + %d", a.Count, beforeCount, b.Count)
			}
			if math.Abs(a.Sum-(beforeSum+b.Sum)) > 1e-9 {
				t.Fatalf("sum %v != %v + %v", a.Sum, beforeSum, b.Sum)
			}
			var total uint64
			for i := range a.Counts {
				if a.Counts[i] != beforeCounts[i]+b.Counts[i] {
					t.Fatalf("bucket %d not additive", i)
				}
				total += a.Counts[i]
			}
			if total != a.Count {
				t.Fatalf("bucket total %d != count %d", total, a.Count)
			}
		} else if err == nil {
			t.Fatalf("mismatched bounds accepted: %v vs %v", a.Bounds, b.Bounds)
		}
	})
}
