package maxmin

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"
	"time"

	"armnet/internal/clock"
	"armnet/internal/des"
	"armnet/internal/eventbus"
	"armnet/internal/randx"
)

// buildProtocol loads a Problem into a fresh Protocol.
func buildProtocol(t testing.TB, sim *des.Simulator, p Problem, opts ProtocolOptions) *Protocol {
	t.Helper()
	pr := NewProtocolOn(clock.Sim(sim), opts)
	for _, l := range p.sortedLinks() {
		if err := pr.AddLink(l, p.Capacity[l]); err != nil {
			t.Fatal(err)
		}
	}
	for _, c := range p.Conns {
		if err := pr.AddConn(c); err != nil {
			t.Fatal(err)
		}
	}
	return pr
}

func tandemProblem() Problem {
	return Problem{
		Capacity: map[string]float64{"L1": 10, "L2": 4, "L3": 8},
		Conns: []Conn{
			{ID: "long", Path: []string{"L1", "L2", "L3"}, Demand: Inf},
			{ID: "x", Path: []string{"L1"}, Demand: Inf},
			{ID: "y", Path: []string{"L2"}, Demand: Inf},
			{ID: "z", Path: []string{"L3"}, Demand: Inf},
		},
	}
}

func TestProtocolConvergesToMaxMin(t *testing.T) {
	p := tandemProblem()
	ref, err := WaterFill(p)
	if err != nil {
		t.Fatal(err)
	}
	sim := des.New()
	pr := buildProtocol(t, sim, p, ProtocolOptions{Refined: true})
	pr.KickAll()
	if err := sim.RunUntil(60); err != nil {
		t.Fatal(err)
	}
	if sim.Pending() > 0 {
		t.Fatalf("protocol did not quiesce: %d pending events", sim.Pending())
	}
	got := pr.Rates()
	if d := ref.MaxDiff(got); d > 1e-6 {
		t.Fatalf("diff %v: protocol %v vs ref %v", d, got, ref)
	}
	if err := p.IsMaxMin(got, 1e-6); err != nil {
		t.Fatal(err)
	}
}

// TestProtocolOnWallClock runs sessions on real time, once per rule:
// continuations fire from timer goroutines under the Wall's lock, and the
// step freelist must only be touched there (make race runs this). Three
// connections kicked in one Run go quiescent at the rule's fixed point:
// the same script on the simulator, which under the paper's rule is
// WaterFill's allocation.
func TestProtocolOnWallClock(t *testing.T) {
	p := Problem{
		Capacity: map[string]float64{"L1": 10, "L2": 4},
		Conns: []Conn{
			{ID: "a", Path: []string{"L1", "L2"}, Demand: 100}, // finite, for the log weight
			{ID: "b", Path: []string{"L1"}, Demand: 100},
			{ID: "c", Path: []string{"L2"}, Demand: 1},
		},
	}
	for _, rule := range testRules {
		t.Run(rule.Name, func(t *testing.T) {
			load := func(pr *Protocol) {
				for _, l := range p.sortedLinks() {
					if err := pr.AddLink(l, p.Capacity[l]); err != nil {
						t.Error(err)
					}
				}
				for _, c := range p.Conns {
					if err := pr.AddConn(c); err != nil {
						t.Error(err)
					}
					pr.Kick(c.ID)
				}
			}
			opts := ProtocolOptions{Refined: true, HopDelay: 1e-4}
			sim := des.New()
			ref := NewProtocolWith(clock.Sim(sim), opts, rule)
			load(ref)
			if err := sim.RunUntil(60); err != nil {
				t.Fatal(err)
			}
			want := ref.Rates()
			if rule.Weight == nil {
				fill, err := WaterFill(p)
				if err != nil {
					t.Fatal(err)
				}
				if d := fill.MaxDiff(want); d > 1e-6 {
					t.Fatalf("simulated allocation %v, WaterFill %v (diff %v)", want, fill, d)
				}
			}

			w := clock.NewWall()
			pr := NewProtocolWith(w, opts, rule)
			pr.Bus = eventbus.New(w)
			quiet := make(chan struct{}, 1)
			pr.Bus.Subscribe(func(eventbus.Record) {
				select {
				case quiet <- struct{}{}:
				default:
				}
			}, eventbus.KindMaxminConverged)
			w.Run(func() { load(pr) })
			// All three sessions start inside that one Run, so the first
			// MaxminConverged is the end of the whole run, cascades included.
			select {
			case <-quiet:
			case <-time.After(10 * time.Second):
				t.Fatal("no MaxminConverged within 10 s on the wall clock")
			}
			var got Allocation
			w.Run(func() { got = pr.Rates() })
			if d := want.MaxDiff(got); d > 1e-6 {
				t.Fatalf("wall-clock allocation %v, simulated %v (diff %v)", got, want, d)
			}
		})
	}
}

func TestProtocolCapacityDecreaseReconverges(t *testing.T) {
	p := tandemProblem()
	sim := des.New()
	pr := buildProtocol(t, sim, p, ProtocolOptions{Refined: true})
	pr.KickAll()
	if err := sim.RunUntil(60); err != nil {
		t.Fatal(err)
	}
	// Shrink L1 from 10 to 5: x should drop from 8 toward 3.
	if _, err := pr.TriggerCapacityChange("L1", 5); err != nil {
		t.Fatal(err)
	}
	if err := sim.RunUntil(120); err != nil {
		t.Fatal(err)
	}
	p2 := pr.Problem()
	ref, err := WaterFill(p2)
	if err != nil {
		t.Fatal(err)
	}
	got := pr.Rates()
	if d := ref.MaxDiff(got); d > 1e-6 {
		t.Fatalf("after shrink diff %v: %v vs %v", d, got, ref)
	}
}

func TestProtocolCapacityIncreaseRespectsDelta(t *testing.T) {
	p := Problem{
		Capacity: map[string]float64{"L": 10},
		Conns: []Conn{
			{ID: "a", Path: []string{"L"}, Demand: Inf},
			{ID: "b", Path: []string{"L"}, Demand: Inf},
		},
	}
	sim := des.New()
	pr := buildProtocol(t, sim, p, ProtocolOptions{Refined: true, Delta: 1.0})
	pr.KickAll()
	if err := sim.RunUntil(30); err != nil {
		t.Fatal(err)
	}
	// Increase below delta: no sessions.
	started, err := pr.TriggerCapacityChange("L", 10.5)
	if err != nil {
		t.Fatal(err)
	}
	if started != 0 {
		t.Fatalf("sub-delta increase started %d sessions", started)
	}
	// Increase above delta: sessions for the bottleneck set.
	started, err = pr.TriggerCapacityChange("L", 14)
	if err != nil {
		t.Fatal(err)
	}
	if started == 0 {
		t.Fatal("above-delta increase started no sessions")
	}
	if err := sim.RunUntil(90); err != nil {
		t.Fatal(err)
	}
	got := pr.Rates()
	for _, id := range []string{"a", "b"} {
		if math.Abs(got[id]-7) > 1e-6 {
			t.Fatalf("rate[%s] = %v, want 7", id, got[id])
		}
	}
}

func TestProtocolRemoveConnFreesShare(t *testing.T) {
	p := Problem{
		Capacity: map[string]float64{"L": 12},
		Conns: []Conn{
			{ID: "a", Path: []string{"L"}, Demand: Inf},
			{ID: "b", Path: []string{"L"}, Demand: Inf},
			{ID: "c", Path: []string{"L"}, Demand: Inf},
		},
	}
	sim := des.New()
	pr := buildProtocol(t, sim, p, ProtocolOptions{Refined: true})
	pr.KickAll()
	if err := sim.RunUntil(60); err != nil {
		t.Fatal(err)
	}
	pr.RemoveConn("c")
	pr.KickAll()
	if err := sim.RunUntil(120); err != nil {
		t.Fatal(err)
	}
	got := pr.Rates()
	if len(got) != 2 {
		t.Fatalf("rates = %v", got)
	}
	for _, id := range []string{"a", "b"} {
		if math.Abs(got[id]-6) > 1e-6 {
			t.Fatalf("rate[%s] = %v, want 6", id, got[id])
		}
	}
}

func TestRefinementReducesMessages(t *testing.T) {
	// A star of connections sharing one roomy hub link, each bottlenecked
	// at its own leaf; a capacity change on one leaf should not flood
	// everyone under the refinement (with hub capacity 20 the hub share
	// would tie the leaves and every connection would legitimately sit
	// in M(hub), so the hub must be clearly uncongested here).
	p := Problem{
		Capacity: map[string]float64{"hub": 40, "leaf0": 5, "leaf1": 5, "leaf2": 5, "leaf3": 5},
		Conns: []Conn{
			{ID: "c0", Path: []string{"leaf0", "hub"}, Demand: Inf},
			{ID: "c1", Path: []string{"leaf1", "hub"}, Demand: Inf},
			{ID: "c2", Path: []string{"leaf2", "hub"}, Demand: Inf},
			{ID: "c3", Path: []string{"leaf3", "hub"}, Demand: Inf},
		},
	}
	run := func(refined bool) int {
		sim := des.New()
		pr := buildProtocol(t, sim, p, ProtocolOptions{Refined: refined})
		pr.KickAll()
		if err := sim.RunUntil(100); err != nil {
			t.Fatal(err)
		}
		before := pr.Messages
		if _, err := pr.TriggerCapacityChange("leaf0", 4); err != nil {
			t.Fatal(err)
		}
		if err := sim.RunUntil(300); err != nil {
			t.Fatal(err)
		}
		// Sanity: still maxmin.
		ref, err := WaterFill(pr.Problem())
		if err != nil {
			t.Fatal(err)
		}
		if d := ref.MaxDiff(pr.Rates()); d > 1e-6 {
			t.Fatalf("refined=%v diverged by %v: %v vs %v", refined, d, pr.Rates(), ref)
		}
		return pr.Messages - before
	}
	naive := run(false)
	refined := run(true)
	if refined >= naive {
		t.Fatalf("refinement did not reduce messages: refined=%d naive=%d", refined, naive)
	}
}

func TestProtocolValidation(t *testing.T) {
	sim := des.New()
	pr := NewProtocolOn(clock.Sim(sim), ProtocolOptions{})
	if err := pr.AddLink("l", 5); err != nil {
		t.Fatal(err)
	}
	if err := pr.AddLink("l", 5); err == nil {
		t.Fatal("duplicate link accepted")
	}
	if err := pr.AddLink("neg", -1); err == nil {
		t.Fatal("negative capacity accepted")
	}
	if err := pr.AddConn(Conn{ID: "c", Path: []string{"ghost"}}); err == nil {
		t.Fatal("unknown link in path accepted")
	}
	if err := pr.AddConn(Conn{ID: "c", Path: nil}); err == nil {
		t.Fatal("empty path accepted")
	}
	if err := pr.AddConn(Conn{ID: "c", Path: []string{"l"}, Demand: Inf}); err != nil {
		t.Fatal(err)
	}
	if err := pr.AddConn(Conn{ID: "c", Path: []string{"l"}, Demand: Inf}); err == nil {
		t.Fatal("duplicate conn accepted")
	}
	if _, err := pr.TriggerCapacityChange("ghost", 1); err == nil {
		t.Fatal("trigger on unknown link accepted")
	}
	if _, err := pr.TriggerCapacityChange("l", -1); err == nil {
		t.Fatal("trigger with negative capacity accepted")
	}
	// Removing an unknown connection is a no-op.
	pr.RemoveConn("nobody")
}

// Property (Theorem 1): on random instances the event-driven protocol
// quiesces and its committed rates satisfy the maxmin criterion.
func TestQuickProtocolConverges(t *testing.T) {
	f := func(seed int64) bool {
		rng := randx.New(seed)
		p := randomProblem(rng, 1+rng.Intn(3), 1+rng.Intn(5))
		sim := des.New()
		pr := buildProtocol(t, sim, p, ProtocolOptions{Refined: true})
		pr.KickAll()
		if err := sim.RunUntil(500); err != nil {
			return false
		}
		if sim.Pending() > 0 {
			t.Logf("seed %d: %d events still pending", seed, sim.Pending())
			return false
		}
		ref, err := WaterFill(p)
		if err != nil {
			return false
		}
		got := pr.Rates()
		if d := ref.MaxDiff(got); d > 1e-6 {
			t.Logf("seed %d: diff %v\nproto %v\nref   %v", seed, d, got, ref)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

func TestProtocolSurvivesChurn(t *testing.T) {
	// Add and remove connections while adaptation sessions are in
	// flight; after the churn stops, the protocol must still converge to
	// the maxmin allocation of whatever survived.
	rng := randx.New(21)
	sim := des.New()
	pr := NewProtocolOn(clock.Sim(sim), ProtocolOptions{Refined: true})
	links := []string{"l0", "l1", "l2"}
	for _, l := range links {
		if err := pr.AddLink(l, 5+rng.Float64()*15); err != nil {
			t.Fatal(err)
		}
	}
	alive := map[string]bool{}
	next := 0
	addConn := func() {
		id := fmt.Sprintf("c%d", next)
		next++
		pathLen := 1 + rng.Intn(3)
		perm := rng.Perm(3)[:pathLen]
		path := make([]string, pathLen)
		for j, k := range perm {
			path[j] = links[k]
		}
		demand := Inf
		if rng.Bernoulli(0.3) {
			demand = rng.Float64() * 8
		}
		if err := pr.AddConn(Conn{ID: id, Path: path, Demand: demand}); err != nil {
			t.Fatal(err)
		}
		alive[id] = true
		pr.Kick(id)
	}
	removeRandom := func() {
		for id := range alive {
			pr.RemoveConn(id)
			delete(alive, id)
			return
		}
	}
	for i := 0; i < 5; i++ {
		addConn()
	}
	// Churn storm: every 50 ms add or remove, mid-session.
	for i := 0; i < 40; i++ {
		at := float64(i) * 0.05
		sim.At(at, func() {
			if rng.Bernoulli(0.5) {
				addConn()
			} else {
				removeRandom()
			}
		})
	}
	// Let the storm pass, then re-kick survivors and settle.
	sim.At(3, func() { pr.KickAll() })
	if err := sim.RunUntil(200); err != nil {
		t.Fatal(err)
	}
	if sim.Pending() != 0 {
		t.Fatalf("%d events still pending after churn", sim.Pending())
	}
	p := pr.Problem()
	if len(p.Conns) == 0 {
		t.Skip("churn removed everything")
	}
	ref, err := WaterFill(p)
	if err != nil {
		t.Fatal(err)
	}
	if d := ref.MaxDiff(pr.Rates()); d > 1e-6 {
		t.Fatalf("post-churn diff %v: %v vs %v", d, pr.Rates(), ref)
	}
}

func TestProtocolStaleBottleneckRegression(t *testing.T) {
	// Regression for a convergence bug caught by randomized testing
	// (quick seed 3289174893179753661): c2 settles at a stale rate while
	// c1/c3/c4 still hold inflated rates on the shared link l2; when they
	// later commit lower, c2 was neither in M(l2) nor above the
	// advertised rate, so the upgrade cascade skipped it and it converged
	// below its maxmin share. The fix re-advertises connections drawing
	// below the advertised rate as well.
	p := Problem{
		Capacity: map[string]float64{
			"l0": 3.8811227816673837,
			"l1": 4.750707888567126,
			"l2": 11.59232024500574,
		},
		Conns: []Conn{
			{ID: "c0", Path: []string{"l0"}, Demand: 9.254032920565056},
			{ID: "c1", Path: []string{"l2", "l1", "l0"}, Demand: Inf},
			{ID: "c2", Path: []string{"l2"}, Demand: 8.05973438529872},
			{ID: "c3", Path: []string{"l2", "l1", "l0"}, Demand: Inf},
			{ID: "c4", Path: []string{"l2", "l1"}, Demand: 0.814453733675058},
		},
	}
	sim := des.New()
	pr := buildProtocol(t, sim, p, ProtocolOptions{Refined: true})
	pr.KickAll()
	if err := sim.RunUntil(500); err != nil {
		t.Fatal(err)
	}
	ref, err := WaterFill(p)
	if err != nil {
		t.Fatal(err)
	}
	if d := ref.MaxDiff(pr.Rates()); d > 1e-6 {
		t.Fatalf("stale-bottleneck regression: diff %v\nproto %v\nref   %v", d, pr.Rates(), ref)
	}
}
