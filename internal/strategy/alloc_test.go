package strategy_test

import (
	"testing"

	"armnet/internal/des"
	"armnet/internal/maxmin"
	"armnet/internal/raceflag"
	"armnet/internal/strategy"
)

// buildQuiescent returns each registered allocator with one link and two
// converged sessions — the steady state the capacity-sync hot path runs
// against on every wireless capacity sample.
func buildQuiescent(t testing.TB, name string) (*des.Simulator, strategy.Allocator) {
	sim := des.New()
	a, err := strategy.NewAllocator(name, sim, maxmin.ProtocolOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := a.AddLink("wl", 1.6e6); err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"a", "b"} {
		if err := a.AddSession(strategy.Session{ID: id, Path: []string{"wl"}, Demand: 1e6}); err != nil {
			t.Fatal(err)
		}
		a.Kick(id)
	}
	if err := sim.RunUntil(10); err != nil {
		t.Fatal(err)
	}
	return sim, a
}

// TestStrategyDispatchAddsNoAllocs pins the seam itself: routing the
// capacity-sync hot path through the Allocator interface must cost
// exactly the same allocations as calling the concrete protocol — the
// indirection is virtual-call-only, with no boxing or closure churn.
// (adapt.SyncLink calls CapacityChanged on every ledger resync, so an
// extra allocation here would multiply across the whole campus run.)
func TestStrategyDispatchAddsNoAllocs(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("race detector adds bookkeeping allocations")
	}
	_, a := buildQuiescent(t, "maxmin")
	pr := a.(interface{ Underlying() *maxmin.Protocol }).Underlying()
	direct := testing.AllocsPerRun(1000, func() {
		if _, err := pr.TriggerCapacityChange("wl", 1.6e6); err != nil {
			t.Fatal(err)
		}
	})
	dispatched := testing.AllocsPerRun(1000, func() {
		if _, err := a.CapacityChanged("wl", 1.6e6); err != nil {
			t.Fatal(err)
		}
	})
	if dispatched != direct {
		t.Fatalf("interface dispatch costs %v allocs/op vs %v direct — the seam must add zero", dispatched, direct)
	}
}

// TestStrategyQuiescentSyncAllocBudget pins every registered allocator's
// quiescent capacity-sync at one budget, the 2 allocs/op maxmin's target
// list costs: every allocator is the one protocol under a different
// switch rule. Growth here is a regression on the most frequently
// dispatched strategy call.
func TestStrategyQuiescentSyncAllocBudget(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("race detector adds bookkeeping allocations")
	}
	const budget = 2
	for _, name := range strategy.Allocators() {
		t.Run(name, func(t *testing.T) {
			_, a := buildQuiescent(t, name)
			got := testing.AllocsPerRun(1000, func() {
				if _, err := a.CapacityChanged("wl", 1.6e6); err != nil {
					t.Fatal(err)
				}
			})
			if got > budget {
				t.Fatalf("%s: quiescent CapacityChanged allocates %v/op, budget %d", name, got, budget)
			}
		})
	}
}

// BenchmarkCapacitySyncDispatch times the quiescent capacity-sync call
// through the strategy interface for each registered allocator.
func BenchmarkCapacitySyncDispatch(b *testing.B) {
	for _, name := range strategy.Allocators() {
		b.Run(name, func(b *testing.B) {
			_, a := buildQuiescent(b, name)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := a.CapacityChanged("wl", 1.6e6); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
