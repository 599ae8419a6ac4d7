package maxmin

import (
	"fmt"
	"testing"

	"armnet/internal/clock"
	"armnet/internal/des"
	"armnet/internal/randx"
	"armnet/internal/sortx"
)

// fuzzProblem generates a random feasible allocation instance: every link
// capacity is positive, every path references registered links, and
// demands are either finite or unbounded — the same instance family the
// Theorem 1 study samples.
func fuzzProblem(rng *randx.Rand, nLinks, nConns int) Problem {
	p := Problem{Capacity: map[string]float64{}}
	links := make([]string, nLinks)
	for i := range links {
		links[i] = fmt.Sprintf("l%d", i)
		p.Capacity[links[i]] = 0.5 + rng.Float64()*25
	}
	for i := 0; i < nConns; i++ {
		pathLen := 1 + rng.Intn(nLinks)
		perm := rng.Perm(nLinks)[:pathLen]
		path := make([]string, pathLen)
		for j, k := range perm {
			path[j] = links[k]
		}
		demand := Inf
		if rng.Bernoulli(0.4) {
			demand = rng.Float64() * 12
		}
		p.Conns = append(p.Conns, Conn{ID: fmt.Sprintf("c%d", i), Path: path, Demand: demand})
	}
	return p
}

// FuzzMaxminConvergence is the empirical Theorem 1 check as a native fuzz
// target: for random feasible instances the event-driven ADVERTISE/UPDATE
// protocol must quiesce in finitely many steps and settle on exactly the
// centralized water-filling allocation, which in turn must satisfy the
// maxmin optimality oracle. The synchronous round-abstracted solver is
// cross-checked against the paper's four-round-trip bound on the same
// instance.
func FuzzMaxminConvergence(f *testing.F) {
	f.Add(int64(1), uint8(3), uint8(4), true, true)
	f.Add(int64(2), uint8(1), uint8(1), false, false)
	f.Add(int64(3), uint8(6), uint8(8), true, false)
	f.Add(int64(4), uint8(4), uint8(6), false, true)
	f.Add(int64(-77), uint8(2), uint8(5), true, true)
	f.Add(int64(123456789), uint8(5), uint8(7), false, false)

	f.Fuzz(func(t *testing.T, seed int64, nl, nc uint8, refined, perturb bool) {
		nLinks := 1 + int(nl%6)
		nConns := 1 + int(nc%8)
		rng := randx.New(seed)
		p := fuzzProblem(rng, nLinks, nConns)
		if err := p.validate(); err != nil {
			t.Fatalf("generator produced invalid instance: %v", err)
		}

		simulator := des.New()
		pr := NewProtocolOn(clock.Sim(simulator), ProtocolOptions{Refined: refined})
		for _, l := range sortx.Keys(p.Capacity) {
			if err := pr.AddLink(l, p.Capacity[l]); err != nil {
				t.Fatal(err)
			}
		}
		for _, c := range p.Conns {
			if err := pr.AddConn(c); err != nil {
				t.Fatal(err)
			}
		}
		pr.KickAll()
		// Theorem 1 promises convergence in finitely many steps; a horizon
		// far beyond any observed settling time turns non-termination into
		// a test failure instead of a hang.
		const horizon = 1e6
		if err := simulator.RunUntil(horizon); err != nil {
			t.Fatal(err)
		}
		if n := simulator.Pending(); n != 0 {
			t.Fatalf("protocol did not quiesce: %d events still pending at horizon", n)
		}
		if perturb {
			links := sortx.Keys(p.Capacity)
			pick := links[rng.Intn(len(links))]
			newCap := p.Capacity[pick] * (0.25 + rng.Float64()*1.5)
			p.Capacity[pick] = newCap
			if _, err := pr.TriggerCapacityChange(pick, newCap); err != nil {
				t.Fatal(err)
			}
			if err := simulator.RunUntil(2 * horizon); err != nil {
				t.Fatal(err)
			}
			if n := simulator.Pending(); n != 0 {
				t.Fatalf("protocol did not re-quiesce after perturbation: %d events pending", n)
			}
		}

		ref, err := WaterFill(pr.Problem())
		if err != nil {
			t.Fatal(err)
		}
		rates := pr.Rates()
		if diff := ref.MaxDiff(rates); diff > 1e-6 {
			t.Fatalf("event-driven rates deviate from water-filling by %v\nprotocol: %v\noracle:   %v\nproblem:  %+v",
				diff, rates, ref, pr.Problem())
		}
		// The settled allocation must itself satisfy the maxmin optimality
		// definition, not merely match the reference implementation.
		if err := pr.Problem().isMaxMin(rates, 1e-6); err != nil {
			t.Fatalf("settled rates fail the maxmin oracle: %v", err)
		}

		// Step bound: the synchronous skeleton of the protocol must reach
		// the same fixpoint within its default bound of 4·conns+8 rounds
		// (the paper's four-round-trip argument).
		sres, err := SyncSolver{}.Solve(pr.Problem())
		if err != nil {
			t.Fatal(err)
		}
		if !sres.Converged {
			t.Fatalf("sync solver exceeded the step bound (%d rounds)", sres.Rounds)
		}
		if diff := ref.MaxDiff(sres.Allocation); diff > 1e-6 {
			t.Fatalf("sync solver fixpoint deviates from water-filling by %v", diff)
		}
	})
}
