package maxmin

import (
	"testing"
	"testing/quick"

	"armnet/internal/des"
	"armnet/internal/randx"
)

// lossyHook drops each control-packet hop independently with probability
// p from a seeded RNG.
func lossyHook(seed int64, p float64) Deliver {
	rng := randx.New(seed)
	return func(conn string, hop int, update bool) (bool, float64) {
		return rng.Bernoulli(p), 0
	}
}

// TestProtocolConvergesUnderControlLoss is the recovery property the
// fault subsystem leans on: with 10% control-packet loss, bounded
// retransmission plus the periodic re-ADVERTISE repair loop still drive
// the protocol to the centralized water-filling allocation.
func TestProtocolConvergesUnderControlLoss(t *testing.T) {
	p := tandemProblem()
	ref, err := WaterFill(p)
	if err != nil {
		t.Fatal(err)
	}
	for seed := int64(1); seed <= 5; seed++ {
		sim := des.New()
		pr := buildProtocol(t, sim, p, ProtocolOptions{
			Refined:           true,
			Deliver:           lossyHook(seed, 0.10),
			ReadvertisePeriod: 5,
		})
		pr.KickAll()
		if err := sim.RunUntil(600); err != nil {
			t.Fatal(err)
		}
		got := pr.Rates()
		if d := ref.MaxDiff(got); d > 1e-6 {
			t.Fatalf("seed %d: diff %v after loss: protocol %v vs ref %v (retransmits %d, readvertises %d)",
				seed, d, got, ref, pr.Retransmits, pr.Readvertises)
		}
	}
}

// TestQuickProtocolConvergesUnderLoss extends the clean-run quick check:
// random problems, seeded 10% loss, repair loop on.
func TestQuickProtocolConvergesUnderLoss(t *testing.T) {
	f := func(seed int64) bool {
		rng := randx.New(seed)
		p := randomProblem(rng, 1+rng.Intn(3), 1+rng.Intn(4))
		ref, err := WaterFill(p)
		if err != nil {
			return true // degenerate instance
		}
		sim := des.New()
		pr := buildProtocol(t, sim, p, ProtocolOptions{
			Refined:           true,
			Deliver:           lossyHook(seed+1, 0.10),
			ReadvertisePeriod: 5,
		})
		pr.KickAll()
		if err := sim.RunUntil(900); err != nil {
			t.Fatal(err)
		}
		if d := ref.MaxDiff(pr.Rates()); d > 1e-6 {
			t.Logf("seed %d: diff %v, got %v want %v", seed, d, pr.Rates(), ref)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestUpdateLossIsRetransmitted drops one UPDATE hop exactly once and
// expects the retransmission to commit the rate anyway.
func TestUpdateLossIsRetransmitted(t *testing.T) {
	sim := des.New()
	dropped := false
	pr := buildProtocol(t, sim, Problem{
		Capacity: map[string]float64{"L": 10},
		Conns:    []Conn{{ID: "c", Path: []string{"L"}, Demand: Inf}},
	}, ProtocolOptions{
		Refined: true,
		Deliver: func(conn string, hop int, update bool) (bool, float64) {
			if update && !dropped {
				dropped = true
				return true, 0
			}
			return false, 0
		},
	})
	pr.Kick("c")
	if err := sim.RunUntil(10); err != nil {
		t.Fatal(err)
	}
	if got := pr.Rates()["c"]; got != 10 {
		t.Fatalf("rate = %v, want 10", got)
	}
	if pr.Retransmits != 1 {
		t.Fatalf("Retransmits = %d, want 1", pr.Retransmits)
	}
}

// TestExhaustedRetriesAreRepairedByReadvertise loses an entire UPDATE
// retry budget (session abandoned, source never learns its rate) and
// expects the periodic re-ADVERTISE loop to detect the drift and repair
// it.
func TestExhaustedRetriesAreRepairedByReadvertise(t *testing.T) {
	sim := des.New()
	drops := 0
	pr := buildProtocol(t, sim, Problem{
		Capacity: map[string]float64{"L": 10},
		Conns:    []Conn{{ID: "c", Path: []string{"L"}, Demand: Inf}},
	}, ProtocolOptions{
		Refined:           true,
		ReadvertisePeriod: 1,
		Deliver: func(conn string, hop int, update bool) (bool, float64) {
			if update && drops < 4 {
				drops++
				return true, 0
			}
			return false, 0
		},
	})
	pr.Kick("c")
	if err := sim.RunUntil(0.5); err != nil {
		t.Fatal(err)
	}
	if got := pr.Rates()["c"]; got != 0 {
		t.Fatalf("rate = %v before repair, want 0 (budget exhausted)", got)
	}
	if pr.Retransmits != 3 {
		t.Fatalf("Retransmits = %d, want 3 (full budget)", pr.Retransmits)
	}
	if err := sim.RunUntil(10); err != nil {
		t.Fatal(err)
	}
	if got := pr.Rates()["c"]; got != 10 {
		t.Fatalf("rate = %v after repair, want 10", got)
	}
	if pr.Readvertises == 0 {
		t.Fatal("repair loop never kicked")
	}
}
