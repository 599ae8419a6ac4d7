// Package sortx holds the repository's ID-order helpers for listings.
//
// Go map iteration order is randomized, and anything that feeds reported
// output (event traces, snapshots, tables must be byte-identical at any
// worker count) must never see that randomness. Two rules follow:
//
//   - State that is listed in ID order on a hot path is *kept* in ID
//     order: an IDs column with the owner's typed columns beside it, so a
//     read is a plain walk with no sort and no allocation.
//   - A map whose loop has an observable effect is iterated through Keys,
//     never directly. Keys sorts and allocates per call; it is for cold
//     paths and reports.
//
// A float total over a set needs neither: stats.Sum is exact, so its
// value does not depend on the order of its terms. An order-independent
// reduction (a max, a count) needs neither either.
package sortx

import (
	"cmp"
	"slices"
	"sort"
)

// Keys returns the map's keys in ascending order.
func Keys[K cmp.Ordered, V any](m map[K]V) []K {
	out := make([]K, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// IDs is a strictly ascending list of IDs: a set that lists itself in
// order, or the key column of a table whose owner keeps typed columns
// parallel to it and mirrors every Insert at the returned row with
// slices.Insert.
type IDs[K cmp.Ordered] []K

// Find returns id's row, or the row it would be inserted at.
func (s IDs[K]) Find(id K) (i int, ok bool) { return slices.BinarySearch(s, id) }

// Insert adds id unless it is present; i is its row either way.
func (s *IDs[K]) Insert(id K) (i int, added bool) {
	i, ok := s.Find(id)
	if !ok {
		*s = slices.Insert(*s, i, id)
	}
	return i, !ok
}
