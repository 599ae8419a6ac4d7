package des

import (
	"testing"

	"armnet/internal/raceflag"
)

// TestPostFireAllocFree pins the steady-state allocation budget of the
// handle-free scheduling hot path: once the freelist holds a recycled
// record, Post + fire must not touch the heap. This is the path every
// per-hop, per-packet, and fire-and-forget caller uses.
func TestPostFireAllocFree(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("race detector adds bookkeeping allocations")
	}
	s := New()
	fn := func() {}
	// Prime: the first round allocates the record that seeds the
	// freelist; every later round must reuse it.
	s.Post(s.Now()+1, fn)
	if !s.step() {
		t.Fatal("priming step fired nothing")
	}
	got := testing.AllocsPerRun(1000, func() {
		s.Post(s.Now()+1, fn)
		s.step()
	})
	if got != 0 {
		t.Fatalf("Post+fire steady state allocates %v/op, want 0", got)
	}
}

// slabRounds runs round slabSize times per measured op: a handle-bearing
// record is never recycled, so the path costs one slab per slabSize
// schedules and nothing else.
func slabRounds(round func()) float64 {
	return testing.AllocsPerRun(100, func() {
		for i := 0; i < slabSize; i++ {
			round()
		}
	})
}

// TestAtFireAllocBudget pins the cancelable path at exactly one slab
// allocation per slabSize schedules: the handle escapes to the caller, so
// the record cannot be pooled, but nothing else may allocate.
func TestAtFireAllocBudget(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("race detector adds bookkeeping allocations")
	}
	s := New()
	fn := func() {}
	got := slabRounds(func() {
		s.At(s.Now()+1, fn)
		s.step()
	})
	if got != 1 {
		t.Fatalf("%d At+fire rounds allocate %v objects, want exactly 1 (the slab of escaping handles)", slabSize, got)
	}
}

// TestPostAfterFireAllocFree pins the fixed-delay lane path: PostAfter +
// fire allocates nothing in steady state, with one event pending or with
// a hundred, where every round advances the lane's ring head and it
// wraps many times over. After and a Ticker's re-arm stay at exactly
// one slab per slabSize escaping handles.
func TestPostAfterFireAllocFree(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("race detector adds bookkeeping allocations")
	}
	fn := func() {}
	for _, pending := range []int{0, 100} {
		s := New()
		for i := 0; i < pending; i++ {
			s.PostAfter(1, fn)
		}
		got := testing.AllocsPerRun(1000, func() {
			s.PostAfter(1, fn)
			s.step()
		})
		if got != 0 {
			t.Fatalf("PostAfter+fire with %d pending allocates %v/op, want 0", pending, got)
		}
		s.PostAfter(1, fn)
		if s.occupied != 1 || s.lanes[0].n != pending+1 || len(s.queue) != 0 {
			t.Fatalf("%d pending: lane 0 holds %d, heap %d, occupied %04b — the events missed the lane", pending, s.lanes[0].n, len(s.queue), s.occupied)
		}
	}
	s := New()
	got := slabRounds(func() {
		s.After(1, fn)
		s.step()
	})
	if got != 1 {
		t.Fatalf("%d After+fire rounds allocate %v objects, want exactly 1 (the slab of escaping handles)", slabSize, got)
	}
	s = New()
	s.Every(1, fn)
	got = slabRounds(func() { s.step() })
	if got != 1 {
		t.Fatalf("%d Ticker periods allocate %v objects, want exactly 1 (the slab of re-armed events)", slabSize, got)
	}
}
