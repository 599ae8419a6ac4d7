package core

import (
	"bytes"
	"strings"
	"testing"

	"armnet/internal/des"
	"armnet/internal/eventbus"
	"armnet/internal/faults"
	"armnet/internal/topology"
)

func mustPlan(t *testing.T, text string) *faults.Plan {
	t.Helper()
	p, err := faults.ParsePlan(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestCellOutageTerminatesAndRestores(t *testing.T) {
	sim, m := newCampus(t, Config{
		Faults: mustPlan(t, "at 5 cell-out off-1\nat 12 cell-restore off-1"),
	})
	// Watching the bus, the auditor re-checks ledger conservation on
	// both component faults.
	aud := m.FaultAuditor()
	if err := m.PlacePortable("alice", "off-1"); err != nil {
		t.Fatal(err)
	}
	id, err := m.OpenConnection("alice", req(64e3, 128e3))
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.RunUntil(6); err != nil {
		t.Fatal(err)
	}
	if m.Connection(id) != nil {
		t.Fatal("connection survived its cell's outage")
	}
	if _, err := m.OpenConnection("alice", req(64e3, 128e3)); err == nil {
		t.Fatal("admission succeeded into a failed cell")
	}
	if err := sim.RunUntil(13); err != nil {
		t.Fatal(err)
	}
	if _, err := m.OpenConnection("alice", req(64e3, 128e3)); err != nil {
		t.Fatalf("admission failed after restoration: %v", err)
	}
	if got := m.Met.Counter.Get(CtrFaultsInjected); got != 2 {
		t.Fatalf("faults-injected = %d, want 2 (outage + restore)", got)
	}
	if err := sim.RunUntil(20); err != nil {
		t.Fatal(err)
	}
	if v := aud.CheckFinal(); len(v) != 0 {
		t.Fatalf("invariant violations: %v", v)
	}
}

func TestSignalingCrashLeaseReclaimsHolds(t *testing.T) {
	sim, m := newCampus(t, Config{
		Faults: mustPlan(t, "at 0.002 crash-signaling"),
	})
	aud := m.FaultAuditor()
	if err := m.PlacePortable("alice", "off-1"); err != nil {
		t.Fatal(err)
	}
	completed := false
	if err := m.OpenConnectionAsync("alice", req(64e3, 128e3), func(string, error) {
		completed = true
	}); err != nil {
		t.Fatal(err)
	}
	if err := sim.RunUntil(0.3); err != nil {
		t.Fatal(err)
	}
	if completed {
		t.Fatal("setup completed before the crash")
	}
	if m.signalPlane().PendingTotal() == 0 {
		t.Fatal("crash left no orphaned holds — the scenario lost its teeth")
	}
	if err := sim.RunUntil(25); err != nil {
		t.Fatal(err)
	}
	if completed {
		t.Fatal("crashed session's callback fired")
	}
	if got := m.signalPlane().PendingTotal(); got != 0 {
		t.Fatalf("holds not reclaimed by lease: %v bits/s", got)
	}
	if m.Met.Counter.Get(CtrReclaimedHolds) == 0 {
		t.Fatal("reclaimed-holds counter never moved")
	}
	if v := aud.CheckFinal(); len(v) != 0 {
		t.Fatalf("invariant violations after recovery: %v", v)
	}
}

// TestFaultAuditorSeesCrashOrphansUntilLease holds FaultAuditor's wiring
// to a signaling crash that strands both kinds of orphan: alice's setup
// has committed at the destination (3.8 ms) while its confirmation is
// still on the way back (7.6 ms), and bob's, started at 3 ms, is in its
// forward pass with tentative holds. Audited before the 10 s hold lease
// runs out, the run shows bob's leaked holds and the allocation of
// conn-0, which never went live; audited after it, nothing.
func TestFaultAuditorSeesCrashOrphansUntilLease(t *testing.T) {
	sim, m := newCampus(t, Config{Faults: mustPlan(t, "at 0.006 crash-signaling")})
	early, late := m.FaultAuditor(), m.FaultAuditor()
	open := func(who string, cell topology.CellID) {
		if err := m.PlacePortable(who, cell); err != nil {
			t.Fatal(err)
		}
		if err := m.OpenConnectionAsync(who, req(64e3, 128e3), func(id string, err error) {
			t.Errorf("%s's crashed setup completed: %q, %v", who, id, err)
		}); err != nil {
			t.Fatal(err)
		}
	}
	open("alice", "off-1")
	sim.At(0.003, func() { open("bob", "cor-e1") })
	if err := sim.RunUntil(5); err != nil {
		t.Fatal(err)
	}
	got := strings.Join(early.CheckFinal(), "\n")
	for _, want := range []string{"leaked-holds: ", "orphaned-alloc: ", "for dead conn-0"} {
		if !strings.Contains(got, want) {
			t.Errorf("audit before the lease ran out lacks %q; it reads:\n%s", want, got)
		}
	}
	if err := sim.RunUntil(25); err != nil {
		t.Fatal(err)
	}
	if v := late.CheckFinal(); len(v) != 0 {
		t.Fatalf("audit after the lease: %v", v)
	}
}

// chaosWorkload is a fixed deterministic scenario used for trace
// comparisons.
func chaosWorkload(t *testing.T, sim *des.Simulator, m *Manager) {
	t.Helper()
	for _, p := range []struct {
		id   string
		cell topology.CellID
	}{{"alice", "off-1"}, {"bob", "cor-w1"}} {
		if err := m.PlacePortable(p.id, p.cell); err != nil {
			t.Fatal(err)
		}
	}
	for _, id := range []string{"alice", "bob"} {
		id := id
		if err := m.OpenConnectionAsync(id, req(64e3, 256e3), func(string, error) {}); err != nil {
			t.Fatal(err)
		}
	}
	sim.At(10, func() { _ = m.HandoffPortable("bob", "cor-w2") })
	if err := sim.RunUntil(30); err != nil {
		t.Fatal(err)
	}
}

func runTraced(t *testing.T, cfg Config) []byte {
	t.Helper()
	env, err := topology.BuildCampus()
	if err != nil {
		t.Fatal(err)
	}
	sim := des.New()
	m, err := NewManager(sim, env, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	eventbus.AttachRecorder(m.Bus, &buf)
	chaosWorkload(t, sim, m)
	return buf.Bytes()
}

// TestEmptyFaultPlanIsZeroCost pins the zero-cost-abstraction contract:
// a nil plan, an empty plan, and a comments-only plan must produce
// byte-identical event traces.
func TestEmptyFaultPlanIsZeroCost(t *testing.T) {
	base := runTraced(t, Config{Seed: 7})
	if len(base) == 0 {
		t.Fatal("workload produced no events")
	}
	empty := runTraced(t, Config{Seed: 7, Faults: &faults.Plan{}})
	if !bytes.Equal(base, empty) {
		t.Fatal("empty fault plan perturbed the event trace")
	}
	comments := runTraced(t, Config{Seed: 7, Faults: mustPlan(t, "# nothing\n")})
	if !bytes.Equal(base, comments) {
		t.Fatal("comments-only fault plan perturbed the event trace")
	}
}

// TestFaultPlanIsDeterministic pins injection determinism: identical
// (plan, seed) pairs must produce byte-identical traces, and the plan
// must actually perturb the run.
func TestFaultPlanIsDeterministic(t *testing.T) {
	cfg := Config{Seed: 7, Faults: mustPlan(t, "drop signal 0.3\ndrop maxmin 0.2\nat 15 cell-out off-1")}
	a := runTraced(t, cfg)
	b := runTraced(t, cfg)
	if !bytes.Equal(a, b) {
		t.Fatal("identical chaos runs diverged")
	}
	clean := runTraced(t, Config{Seed: 7})
	if bytes.Equal(a, clean) {
		t.Fatal("fault plan had no observable effect")
	}
}
