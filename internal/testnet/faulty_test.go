package testnet

import (
	"bytes"
	"strings"
	"testing"

	"armnet/internal/faults"
)

func mustPlan(t *testing.T, spec string) *faults.Plan {
	t.Helper()
	p, err := faults.ParseWirePlan(strings.NewReader(spec))
	if err != nil {
		t.Fatalf("plan: %v", err)
	}
	return p
}

// TestNetfaultsEmptyPlanZeroCost pins the zero-cost contract from the
// acceptance criteria: wrapping the loopback fabric in the fault layer
// with an empty plan must be behaviour-preserving — the controller and
// node traces stay byte-identical to the unwrapped run and the frame
// accounting does not move.
func TestNetfaultsEmptyPlanZeroCost(t *testing.T) {
	plain := mustRun(t, Config{Mode: ModeLoopback})
	wrapped := mustRun(t, Config{Mode: ModeLoopback, Faults: &faults.Plan{}})

	if len(wrapped.Violations) > 0 {
		t.Fatalf("wrapped violations: %v", wrapped.Violations)
	}
	if d := DiffTraces(plain.ControllerTrace, wrapped.ControllerTrace); d != "" {
		t.Fatalf("empty-plan wrapper perturbed the controller trace:\n%s", d)
	}
	for name, ta := range plain.NodeTraces {
		if !bytes.Equal(ta, wrapped.NodeTraces[name]) {
			t.Fatalf("empty-plan wrapper perturbed node %s trace:\n%s",
				name, DiffTraces(ta, wrapped.NodeTraces[name]))
		}
	}
	if plain.FramesSent != wrapped.FramesSent || wrapped.FrameDrops != 0 {
		t.Fatalf("frame accounting moved: %d/%d vs %d/%d",
			plain.FramesSent, plain.FrameDrops, wrapped.FramesSent, wrapped.FrameDrops)
	}
	fs := wrapped.Faults
	if fs == nil {
		t.Fatal("fault stats missing on wrapped run")
	}
	if fs.Drops+fs.Dups+fs.Delays+fs.Reorders+fs.PartitionDrops != 0 {
		t.Fatalf("empty plan fired: %+v", fs)
	}
}

// TestFaultyLoopbackDeterministic pins deterministic chaos: the same
// (plan, seed) pair replays byte-identical traces, and the protocols'
// own retransmission plus the readvertise repair loop absorb the losses
// — the final audit stays clean.
func TestFaultyLoopbackDeterministic(t *testing.T) {
	cfg := Config{
		Mode:        ModeLoopback,
		Faults:      mustPlan(t, "drop any 0.15\ndup maxmin 0.1\nreorder maxmin 0.2 0.004\n"),
		faultSeed:   7,
		readvertise: 0.5,
		Horizon:     4,
	}
	a := mustRun(t, cfg)
	b := mustRun(t, cfg)
	if len(a.Violations) > 0 {
		t.Fatalf("violations under chaos: %v", a.Violations)
	}
	if d := DiffTraces(a.ControllerTrace, b.ControllerTrace); d != "" {
		t.Fatalf("chaos not deterministic:\n%s", d)
	}
	for name, ta := range a.NodeTraces {
		if !bytes.Equal(ta, b.NodeTraces[name]) {
			t.Fatalf("node %s trace not deterministic under chaos", name)
		}
	}
	if a.Faults.Drops == 0 || a.Faults.Dups == 0 || a.Faults.Reorders == 0 {
		t.Fatalf("injector idle: %+v", a.Faults)
	}
	// A different seed must take a different path through the run.
	cfg.faultSeed = 8
	c := mustRun(t, cfg)
	if a.Faults.Drops == c.Faults.Drops && a.Faults.Reorders == c.Faults.Reorders &&
		bytes.Equal(a.ControllerTrace, c.ControllerTrace) {
		t.Fatal("different fault seeds replayed the identical run (suspicious)")
	}
}

// TestSignalTotalLoss is the retry-exhaustion regression from the issue:
// under 100% signaling loss every setup burns its retry budget, gives
// up, and releases its holds — the auditor must find zero leaked
// reservations and the run must not wedge.
func TestSignalTotalLoss(t *testing.T) {
	res := mustRun(t, Config{
		Mode:      ModeLoopback,
		Faults:    mustPlan(t, "drop signal 1\n"),
		faultSeed: 1,
		Horizon:   5,
		// Nothing ever commits, so the script's handoffs and closes hit
		// unknown connections — exactly what Lenient is for.
		Lenient: true,
	})
	if len(res.Violations) > 0 {
		t.Fatalf("violations after total loss: %v", res.Violations)
	}
	if res.Commits != 0 {
		t.Fatalf("committed %d setups through a dead wire", res.Commits)
	}
	if res.Aborted == 0 || res.Rollbacks == 0 {
		t.Fatalf("no give-up path taken: aborted=%d rollbacks=%d", res.Aborted, res.Rollbacks)
	}
	if len(res.Live) != 0 {
		t.Fatalf("live conns survived total loss: %v", res.Live)
	}
	if res.Faults.Drops == 0 {
		t.Fatal("injector recorded no drops")
	}
	// Retry exhaustion must show in the trace as retransmit attempts.
	if !strings.Contains(string(res.ControllerTrace), `"control-retransmit"`) {
		t.Error("controller trace has no retransmit records")
	}
}

// TestCrashRestartRecovery exercises a crash that recovers faster than
// the lease miss budget: the east agent loses its volatile mirror, the
// restart triggers the re-LISTEN handshake (hello + resync), and the
// connection it serves survives without any reclamation.
func TestCrashRestartRecovery(t *testing.T) {
	res := mustRun(t, Config{
		Mode:      ModeLoopback,
		Faults:    mustPlan(t, "at 1.6 crash east for 0.3\n"),
		faultSeed: 3,
		lease:     leaseConfig{Period: 0.25, MissBudget: 2},
		Horizon:   4,
	})
	if len(res.Violations) > 0 {
		t.Fatalf("violations: %v", res.Violations)
	}
	fs := res.Faults
	if fs.Crashes != 1 || fs.Restarts != 1 {
		t.Fatalf("lifecycle counters: %+v", fs)
	}
	if fs.PartitionDrops == 0 {
		t.Error("no frames were eaten while the agent was down")
	}
	if fs.LeaseReclaims != 0 {
		t.Errorf("fast restart still reclaimed %d conns", fs.LeaseReclaims)
	}
	east := string(res.NodeTraces["east"])
	if !strings.Contains(east, `"msg":"resync"`) {
		t.Error("east never received the resync handshake")
	}
	if !strings.Contains(east, `"msg":"lease-renew"`) {
		t.Error("east never received a lease renewal")
	}
	// dave:0 is homed on an east cell after its handoff; surviving the
	// crash intact is the point of the resync.
	found := false
	for _, conn := range res.Live {
		found = found || conn == "dave:0"
	}
	if !found {
		t.Errorf("dave:0 did not survive the fast restart: live=%v", res.Live)
	}
}

// TestPartitionLeaseReclaim exercises the slow path: a partition longer
// than the miss budget kills the agent's lease, the controller reclaims
// the reservations routed through it (trace-visible as hold-reclaimed
// events with the wire-lease reason), and the audit still balances —
// reclaimed bandwidth went back to the ledger, not into a leak.
func TestPartitionLeaseReclaim(t *testing.T) {
	res := mustRun(t, Config{
		Mode:      ModeLoopback,
		Faults:    mustPlan(t, "at 1.6 partition east for 1.5\n"),
		faultSeed: 3,
		lease:     leaseConfig{Period: 0.25, MissBudget: 2},
		Horizon:   4.5,
		Lenient:   true,
	})
	if len(res.Violations) > 0 {
		t.Fatalf("violations: %v", res.Violations)
	}
	fs := res.Faults
	if fs.LeaseReclaims == 0 {
		t.Fatal("lease rounds reclaimed nothing through a dead agent")
	}
	if fs.Crashes != 0 || fs.Restarts != 0 {
		t.Errorf("partition ran the crash lifecycle: %+v", fs)
	}
	ctrace := string(res.ControllerTrace)
	if !strings.Contains(ctrace, `"hold-reclaimed"`) || !strings.Contains(ctrace, `"wire-lease"`) {
		t.Error("controller trace missing the wire-lease reclamation")
	}
	// The reclaimed connection must be gone from the final live set.
	for _, conn := range res.Live {
		if conn == "dave:0" {
			t.Error("dave:0 survived a lease reclamation")
		}
	}
}

// TestLeaseQuietWire pins that the lease machinery on a healthy run is
// invisible to the audit: renewals flow, nothing is reclaimed, and the
// scenario outcome matches the lease-free run.
func TestLeaseQuietWire(t *testing.T) {
	plain := mustRun(t, Config{Mode: ModeLoopback})
	leased := mustRun(t, Config{
		Mode:  ModeLoopback,
		lease: leaseConfig{Period: 0.5},
	})
	if len(leased.Violations) > 0 {
		t.Fatalf("violations: %v", leased.Violations)
	}
	if plain.Commits != leased.Commits || plain.Aborted != leased.Aborted {
		t.Fatalf("lease rounds changed the outcome: %d/%d vs %d/%d",
			plain.Commits, plain.Aborted, leased.Commits, leased.Aborted)
	}
	if !equalStrings(plain.Live, leased.Live) {
		t.Fatalf("live sets diverged: %v vs %v", plain.Live, leased.Live)
	}
	merged := joinTraces(leased.NodeTraces)
	if !strings.Contains(merged, `"msg":"lease-renew"`) {
		t.Error("no renewal frames reached the nodes")
	}
	if strings.Contains(merged, `"msg":"resync"`) {
		t.Error("healthy run triggered a resync")
	}
}

// TestFaultPlanUnknownLinkRefused: a rule filtered to a link the campus
// does not have would never fire, so Run and RunSoak refuse it before
// anything runs, naming the rule; a rule on a real link runs and fires.
func TestFaultPlanUnknownLinkRefused(t *testing.T) {
	const unknown = `testnet: fault plan: drop maxmin rule on unknown link "no-such-link"`
	for _, tc := range []struct {
		name, spec, err string
	}{
		{"unknown link", "drop maxmin 1 on no-such-link\n", unknown},
		{"real link", "drop maxmin 0.5 on core->sw-east\n", ""},
	} {
		t.Run(tc.name, func(t *testing.T) {
			plan := mustPlan(t, tc.spec)
			res, err := Run(Config{Mode: ModeLoopback, Faults: plan, faultSeed: 3, readvertise: 0.5, Horizon: 4})
			if tc.err != "" {
				if err == nil || err.Error() != tc.err {
					t.Fatalf("Run: err = %v, want %q", err, tc.err)
				}
				_, err := RunSoak(SoakConfig{Epochs: 1, Plans: []*faults.Plan{{}, plan}})
				if err == nil || err.Error() != tc.err {
					t.Fatalf("RunSoak: err = %v, want %q", err, tc.err)
				}
				return
			}
			if err != nil {
				t.Fatalf("Run: %v", err)
			}
			if res.Faults.Drops == 0 {
				t.Fatalf("the rule on %s never fired: %+v", plan.Rules[0].Link, res.Faults)
			}
		})
	}
}
