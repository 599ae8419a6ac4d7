package testnet

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"armnet/internal/faults"
	"armnet/internal/netfaults"
)

var updateSoak = flag.Bool("update-soak", false, "rewrite the soak golden report")

// soakGateConfig is the short deterministic soak the `make soak` gate
// runs: three epochs cover the full default plan rotation — loss +
// reorder, partition, crash/restart — in a fraction of a second of
// wall time.
func soakGateConfig() SoakConfig {
	return SoakConfig{Epochs: 3, Seed: 42}
}

// TestSoakGolden pins the soak report byte-for-byte: the same seed must
// reproduce the identical JSONL on every machine, and the audited
// epochs must all be violation-free with every fault family exercised.
func TestSoakGolden(t *testing.T) {
	res, err := RunSoak(soakGateConfig())
	if err != nil {
		t.Fatalf("soak: %v", err)
	}
	if len(res.Violations) > 0 {
		t.Fatalf("soak violations: %v", res.Violations)
	}
	if len(res.Reports) != 3 {
		t.Fatalf("audited %d epochs, want 3", len(res.Reports))
	}
	for _, rep := range res.Reports {
		if len(rep.Violations) > 0 {
			t.Errorf("epoch %d violations: %v", rep.Epoch, rep.Violations)
		}
		if rep.PendingHolds != 0 {
			t.Errorf("epoch %d leaked %g of pending holds", rep.Epoch, rep.PendingHolds)
		}
	}
	// The acceptance plan must actually combine loss, reordering, a
	// partition, and one crash/restart cycle.
	last := res.Reports[len(res.Reports)-1]
	if last.Drops == 0 || last.Reorders == 0 || last.PartitionDrops == 0 {
		t.Errorf("fault families idle: %+v", last)
	}
	if last.Crashes != 1 || last.Restarts != 1 {
		t.Errorf("crash lifecycle ran %d/%d times, want 1/1", last.Crashes, last.Restarts)
	}
	if last.Commits == 0 {
		t.Error("workload committed nothing")
	}

	golden := filepath.Join("testdata", "soak_golden.jsonl")
	if *updateSoak {
		if err := os.WriteFile(golden, res.ReportJSONL, 0o644); err != nil {
			t.Fatalf("update golden: %v", err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("golden (regenerate with -update-soak): %v", err)
	}
	if !bytes.Equal(res.ReportJSONL, want) {
		t.Fatalf("soak report drifted from golden:\n got: %s\nwant: %s", res.ReportJSONL, want)
	}
}

// TestSoakDeterministic pins run-to-run identity independent of the
// golden file, plus seed sensitivity.
func TestSoakDeterministic(t *testing.T) {
	a, err := RunSoak(soakGateConfig())
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunSoak(soakGateConfig())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.ReportJSONL, b.ReportJSONL) {
		t.Fatalf("soak not deterministic:\n%s\nvs\n%s", a.ReportJSONL, b.ReportJSONL)
	}
	if !bytes.Equal(a.Run.ControllerTrace, b.Run.ControllerTrace) {
		t.Fatal("controller traces diverged across identical soaks")
	}
	cfg := soakGateConfig()
	cfg.Seed = 43
	c, err := RunSoak(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(a.ReportJSONL, c.ReportJSONL) {
		t.Fatal("different seeds produced the identical soak (suspicious)")
	}
}

// TestSoakRejectsShortEpoch pins the config guard: an epoch must leave
// room for the heal window.
func TestSoakRejectsShortEpoch(t *testing.T) {
	if _, err := RunSoak(SoakConfig{EpochLen: 3}); err == nil {
		t.Fatal("short epoch accepted")
	}
}

// TestSoakDeterminismAcrossRuns repeats the gate soak — all three
// default plans, so loss, reordering, the partition and the
// crash/restart all fire — and demands the same report lines and the
// same controller trace from every run.
func TestSoakDeterminismAcrossRuns(t *testing.T) {
	var first *SoakResult
	for run := 0; run < 5; run++ {
		res, err := RunSoak(soakGateConfig())
		if err != nil {
			t.Fatalf("run %d: %v", run, err)
		}
		if first == nil {
			first = res
			continue
		}
		if !bytes.Equal(res.ReportJSONL, first.ReportJSONL) {
			t.Fatalf("run %d report differs from run 0:\n%s\nvs\n%s", run, res.ReportJSONL, first.ReportJSONL)
		}
		if !bytes.Equal(res.Run.ControllerTrace, first.Run.ControllerTrace) {
			t.Fatalf("run %d controller trace differs from run 0:\n%s", run,
				DiffTraces(first.Run.ControllerTrace, res.Run.ControllerTrace))
		}
	}
}

// referenceSoakHooks is the node-fault expansion RunSoak carried before
// it moved onto faults.Timed.Restoration: start clamped to
// [0, active-0.5], end clamped to [0, active], and a fault without a
// duration of its own held until the active window closes.
func referenceSoakHooks(plan *netfaults.Plan, base, active float64) []faults.Timed {
	var out []faults.Timed
	for _, nf := range plan.Timed {
		start := base + clampF(nf.At, 0, active-0.5)
		end := base + active
		if nf.For > 0 {
			end = base + clampF(nf.At+nf.For, 0, active)
		}
		restore := "heal"
		if nf.Action == "crash" {
			restore = "restart"
		}
		out = append(out,
			faults.Timed{At: start, Action: nf.Action, Target: nf.Target},
			faults.Timed{At: end, Action: restore, Target: nf.Target})
	}
	return out
}

// TestSoakEventsMatchReferenceHooks pins the soak's clamp on the shared
// expansion: (time, action, target) for faults inside the window, ones
// that start or end past it, and a crash with no `for` (the unclamped
// schedulers never restart it; the soak forces the restart at the heal
// boundary).
func TestSoakEventsMatchReferenceHooks(t *testing.T) {
	plan := mustPlan(t, `
at 1 partition east for 2
at 0.8 crash west for 2.2
at 3 crash core
at 5 partition east for 9
at 7 crash west for 1
at 5.9 partition core for 0.05
`)
	const active = 6.0
	for _, base := range []float64{0, 10, 20} {
		want := referenceSoakHooks(plan, base, active)
		got := soakEvents(plan, base, active)
		if len(got) != len(want) {
			t.Fatalf("base %g: %d events, want %d", base, len(got), len(want))
		}
		for i := range want {
			if got[i].At != want[i].At || got[i].Action != want[i].Action || got[i].Target != want[i].Target {
				t.Errorf("base %g event %d: got %g %s %s, want %g %s %s", base, i,
					got[i].At, got[i].Action, got[i].Target, want[i].At, want[i].Action, want[i].Target)
			}
		}
	}
	// Spelled out once, so the reference is checked too: epoch at 10.
	got := soakEvents(plan, 10, active)
	for i, want := range []faults.Timed{
		{At: 11, Action: "partition", Target: "east"}, {At: 13, Action: "heal", Target: "east"},
		{At: 10.8, Action: "crash", Target: "west"}, {At: 10 + (0.8 + 2.2), Action: "restart", Target: "west"},
		{At: 13, Action: "crash", Target: "core"}, {At: 16, Action: "restart", Target: "core"},
		{At: 15, Action: "partition", Target: "east"}, {At: 16, Action: "heal", Target: "east"},
		{At: 15.5, Action: "crash", Target: "west"}, {At: 16, Action: "restart", Target: "west"},
		{At: 15.5, Action: "partition", Target: "core"}, {At: 10 + (5.9 + 0.05), Action: "heal", Target: "core"},
	} {
		if got[i].At != want.At || got[i].Action != want.Action || got[i].Target != want.Target {
			t.Errorf("event %d: got %g %s %s, want %g %s %s", i,
				got[i].At, got[i].Action, got[i].Target, want.At, want.Action, want.Target)
		}
	}
}
