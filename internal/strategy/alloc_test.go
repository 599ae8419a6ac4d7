package strategy_test

import (
	"testing"

	"armnet/internal/des"
	"armnet/internal/maxmin"
	"armnet/internal/raceflag"
	"armnet/internal/strategy"
)

// buildQuiescent returns the named allocator with one link and two
// converged sessions — the steady state the capacity-sync hot path runs
// against on every wireless capacity sample.
func buildQuiescent(t testing.TB, name string) *maxmin.Protocol {
	sim := des.New()
	a := newProtocol(t, name, sim, maxmin.ProtocolOptions{})
	if err := a.AddLink("wl", 1.6e6); err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"a", "b"} {
		if err := a.AddConn(maxmin.Conn{ID: id, Path: []string{"wl"}, Demand: 1e6}); err != nil {
			t.Fatal(err)
		}
		a.Kick(id)
	}
	if err := sim.RunUntil(10); err != nil {
		t.Fatal(err)
	}
	return a
}

// TestStrategyQuiescentSyncAllocBudget pins every allocator's quiescent
// capacity-sync at one budget, the 2 allocs/op maxmin's target list
// costs: every allocator is the one protocol under a different switch
// rule. adapt.Manager.SyncLink makes this call on every ledger resync,
// so growth here multiplies across a whole campus run.
func TestStrategyQuiescentSyncAllocBudget(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("race detector adds bookkeeping allocations")
	}
	const budget = 2
	for _, name := range strategy.Allocators() {
		t.Run(name, func(t *testing.T) {
			a := buildQuiescent(t, name)
			got := testing.AllocsPerRun(1000, func() {
				if _, err := a.TriggerCapacityChange("wl", 1.6e6); err != nil {
					t.Fatal(err)
				}
			})
			if got > budget {
				t.Fatalf("%s: quiescent TriggerCapacityChange allocates %v/op, budget %d", name, got, budget)
			}
		})
	}
}

// BenchmarkQuiescentCapacitySync times the quiescent capacity-sync call
// for each allocator.
func BenchmarkQuiescentCapacitySync(b *testing.B) {
	for _, name := range strategy.Allocators() {
		b.Run(name, func(b *testing.B) {
			a := buildQuiescent(b, name)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := a.TriggerCapacityChange("wl", 1.6e6); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
