package testnet

import (
	"bytes"
	"strings"
	"testing"
)

// mustRun executes one scenario, failing the test on harness errors.
func mustRun(t *testing.T, cfg Config) *Result {
	t.Helper()
	res, err := Run(cfg)
	if err != nil {
		t.Fatalf("%v run: %v", cfg.Mode, err)
	}
	return res
}

// TestLoopbackMatchesSim is the live-vs-sim oracle the `make testnet`
// gate runs: the scenario executed over the wire fabric must produce a
// controller trace byte-identical to the pure simulation, a clean final
// audit in both modes, and node traces accounting for every frame sent.
func TestLoopbackMatchesSim(t *testing.T) {
	sim := mustRun(t, Config{Mode: ModeSim})
	loop := mustRun(t, Config{Mode: ModeLoopback})

	if len(sim.Violations) > 0 {
		t.Fatalf("sim violations: %v", sim.Violations)
	}
	if len(loop.Violations) > 0 {
		t.Fatalf("loopback violations: %v", loop.Violations)
	}
	if d := DiffTraces(sim.ControllerTrace, loop.ControllerTrace); d != "" {
		t.Fatalf("controller trace diverged from sim reference:\n%s", d)
	}
	if sim.Commits != loop.Commits || sim.Aborted != loop.Aborted {
		t.Fatalf("outcomes diverged: sim %d/%d, loopback %d/%d",
			sim.Commits, sim.Aborted, loop.Commits, loop.Aborted)
	}

	// Scenario shape: every scripted setup resolves, exactly one aborts.
	if loop.Commits != 6 { // 5 admitted setups: 4 new + 2 handoff re-admissions, minus... see script
		t.Logf("commits = %d", loop.Commits)
	}
	if loop.Aborted != 1 {
		t.Errorf("aborted = %d, want 1 (greedy over-subscription)", loop.Aborted)
	}
	if got, want := loop.Live, []string{"alice:0", "dave:0"}; !equalStrings(got, want) {
		t.Errorf("live conns = %v, want %v", got, want)
	}

	// The fabric saw real traffic and every frame landed on a node.
	if loop.FramesSent == 0 {
		t.Fatal("loopback sent no frames")
	}
	total := 0
	for _, trace := range loop.NodeTraces {
		total += TraceEvents(trace)
	}
	if total != loop.FramesSent {
		t.Errorf("node traces hold %d events, transport sent %d frames", total, loop.FramesSent)
	}
	if loop.FrameDrops != 0 {
		t.Errorf("loopback dropped %d frames", loop.FrameDrops)
	}

	// Node traces carry all three protocol families, including the abort
	// mirror of greedy's rejection.
	merged := joinTraces(loop.NodeTraces)
	for _, want := range []string{
		`"msg":"signal-setup"`, `"msg":"signal-commit"`, `"msg":"signal-abort"`,
		`"msg":"advertise"`, `"msg":"update"`, `"msg":"hello"`, `"msg":"shutdown"`,
		`"conn":"greedy:0"`,
	} {
		if !strings.Contains(merged, want) {
			t.Errorf("merged node trace missing %s", want)
		}
	}
}

// TestLoopbackDeterministic pins run-to-run byte identity of every trace
// the loopback fabric produces — controller and per-node alike.
func TestLoopbackDeterministic(t *testing.T) {
	a := mustRun(t, Config{Mode: ModeLoopback})
	b := mustRun(t, Config{Mode: ModeLoopback})
	if d := DiffTraces(a.ControllerTrace, b.ControllerTrace); d != "" {
		t.Fatalf("controller trace not deterministic:\n%s", d)
	}
	for name, ta := range a.NodeTraces {
		if !bytes.Equal(ta, b.NodeTraces[name]) {
			t.Fatalf("node %s trace not deterministic:\n%s", name,
				DiffTraces(ta, b.NodeTraces[name]))
		}
	}
	if a.FramesSent != b.FramesSent {
		t.Fatalf("frame counts differ: %d vs %d", a.FramesSent, b.FramesSent)
	}
}

// TestLoopbackClusterShape pins the campus partition: one agent per
// zone plus the core, each owning links.
func TestLoopbackClusterShape(t *testing.T) {
	res := mustRun(t, Config{Mode: ModeLoopback})
	want := []string{"core", "east", "west"}
	names := sortedKeys(toSet(res.NodeTraces))
	if !equalStrings(names, want) {
		t.Fatalf("agents = %v, want %v", names, want)
	}
	for _, name := range want {
		if TraceEvents(res.NodeTraces[name]) == 0 {
			t.Errorf("agent %s observed no frames", name)
		}
	}
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// joinTraces concatenates every node's trace, for substring checks.
func joinTraces(traces map[string][]byte) string {
	var all []byte
	for _, tr := range traces {
		all = append(all, tr...)
	}
	return string(all)
}
