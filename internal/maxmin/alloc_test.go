package maxmin

import (
	"testing"

	"armnet/internal/raceflag"
)

// TestAdvertisedRateAllocFree pins the per-ADVERTISE hot path at zero
// allocations for realistic link loads: up to 64 connections the
// restricted set lives in a stack array, so the protocol's periodic
// advertisement sweep never touches the heap.
func TestAdvertisedRateAllocFree(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("race detector adds bookkeeping allocations")
	}
	recorded := make([]float64, 64)
	for i := range recorded {
		recorded[i] = float64(i%7) + 1
	}
	got := testing.AllocsPerRun(1000, func() {
		AdvertisedRate(100, recorded)
	})
	if got != 0 {
		t.Fatalf("AdvertisedRate(64 conns) allocates %v/op, want 0", got)
	}
}

// TestRetransmitSessionAllocFree is the lossy half of the session pin: a
// session whose first sweep loses one hop is resent from a pooled step
// like every other continuation, so after warm-up it allocates nothing,
// under every rule.
func TestRetransmitSessionAllocFree(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("race detector adds bookkeeping allocations")
	}
	for _, rule := range testRules {
		pr, settle := settledPath(t, 8, rule)
		lose := false
		pr.Opts.Deliver = func(_ string, hop int, _ bool) (bool, float64) {
			if lose && hop == 1 {
				lose = false
				return true, 0
			}
			return false, 0
		}
		retransmits := pr.Retransmits
		got := testing.AllocsPerRun(50, func() {
			lose = true
			if !pr.Kick("c0") {
				t.Fatal("Kick(c0) started no session")
			}
			settle()
		})
		if n := pr.Retransmits - retransmits; n != 51 { // AllocsPerRun's warm-up run plus 50
			t.Fatalf("%s: %d retransmissions over 51 sessions, want one each", rule.Name, n)
		}
		if got != 0 {
			t.Fatalf("%s: a session with one retransmission allocates %v objects, want 0", rule.Name, got)
		}
	}
}
