package sim

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"armnet/internal/core"
	"armnet/internal/faults"
	"armnet/internal/runner"
	"armnet/internal/topology"
)

// update rewrites every golden file of the package from current output
// (`make golden`).
var update = flag.Bool("update", false, "rewrite the golden files from current output")

// The chaos scenario is the campus walk with every connection opened
// through the signaling plane while a fault plan injects control-message
// loss and component crashes; the walk runs on past the workload so
// leases expire and retried sessions settle before the audit.
const (
	// faultDwell is the mean cell dwell of the chaos and overload walks,
	// in seconds.
	faultDwell = 120
	// settleTime is the default drain horizon after the workload stops,
	// in seconds.
	settleTime = 60
	// chaosBMin and chaosBMax are the per-connection bandwidth bounds, in
	// bits/s.
	chaosBMin, chaosBMax = 32e3, 128e3
)

// runChaos walks n portables over the campus for duration seconds under
// plan (faults.ParsePlan's grammar), runs settle seconds more and audits
// the recovery invariants with the manager's FaultAuditor, streaming the
// event trace to traceW when it is non-nil. It returns the finished
// manager and the audit's violations.
func runChaos(seed int64, n int, duration, settle float64, plan string, traceW io.Writer) (*core.Manager, []string, error) {
	fp, err := faults.ParsePlan(strings.NewReader(plan))
	if err != nil {
		return nil, nil, err
	}
	env, err := topology.BuildCampus()
	if err != nil {
		return nil, nil, err
	}
	trace, err := randomWalk(env.Universe, "p%02d", n, faultDwell, duration, seed)
	if err != nil {
		return nil, nil, err
	}
	w := walk{
		env:   env,
		cfg:   core.Config{Seed: seed, Faults: fp},
		trace: trace, req: walkRequest(chaosBMin, chaosBMax),
		open: openSignaled, horizon: duration + settle, traceW: traceW,
	}
	mgr, err := w.start()
	if err != nil {
		return nil, nil, err
	}
	violations, err := w.run(mgr.FaultAuditor().CheckFinal)
	return mgr, violations, err
}

// outcome renders what a finished run shows — every counter, the events
// fired, the campus summary with its latency means and rates, the maxmin
// oracle gap under the paper's allocator and the audits' violations —
// for byte comparison across runs.
func outcome(mgr *core.Manager, violations []string) string {
	s := fmt.Sprintf("%s events=%d result=%+v violations=%q", mgr.Met.Counter, mgr.Sim.Fired(), campusResult(mgr), violations)
	if mm := mgr.Adpt.Maxmin(); mm != nil {
		s += fmt.Sprintf(" gap=%v", mm.OracleGap())
	}
	return s
}

// The pinned seed-1 chaos scenario: 8 portables for 120 s plus 30 s of
// settling, with 10% control-message loss, a cell outage mid-run, and a
// signaling-plane crash.
const chaosGoldenPlan = "at 30 cell-out off-2 for 30\nat 80 crash-signaling\ndrop any 0.1"

// TestChaosAuditorCleanUnderLoss is the headline recovery claim: at 10%
// control-message loss with component crashes, retransmission, retried
// sweeps and leases bring the system back to a state where every recovery
// invariant holds — no leaked holds, ledger conservation, no orphaned
// allocations, and maxmin re-convergence to the water-filling oracle.
func TestChaosAuditorCleanUnderLoss(t *testing.T) {
	plan := "at 120 cell-out off-2 for 60\nat 300 crash-zone west\nat 450 crash-signaling\ndrop any 0.1"
	for _, seed := range []int64{1, 2, 3} {
		mgr, violations, err := runChaos(seed, 16, 600, settleTime, plan, nil)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if len(violations) != 0 {
			t.Fatalf("seed %d: recovery invariants violated:\n%s", seed, strings.Join(violations, "\n"))
		}
		if mgr.Met.Counter.Get(core.CtrFaultsInjected) == 0 {
			t.Fatalf("seed %d: the fault plan never fired", seed)
		}
		if mgr.Met.Counter.Get(core.CtrHandoffTried) == 0 {
			t.Fatalf("seed %d: workload produced no handoffs", seed)
		}
	}
}

// TestChaosRetransmissionRecovers checks the lossy-control-plane path end
// to end: drops must be observed, retransmitted, and still leave the run
// audit-clean.
func TestChaosRetransmissionRecovers(t *testing.T) {
	mgr, violations, err := runChaos(1, 16, 300, settleTime, "drop any 0.2", nil)
	if err != nil {
		t.Fatal(err)
	}
	if mgr.Met.Counter.Get(core.CtrRetransmits) == 0 {
		t.Fatal("20% loss produced no retransmissions")
	}
	if len(violations) != 0 {
		t.Fatalf("violations: %v", violations)
	}
}

// TestChaosDropTwentySeedTwoDiverges pins an open defect (the FOUND entry
// in CHANGES.md on maxmin's re-ADVERTISE under 20 % loss): the run
// TestChaosRetransmissionRecovers makes at seed 1 ends, at seed 2, with
// the rate protocol 96 kb/s away from the water-filling oracle after 60 s
// of settling. The change that mends the defect flips this test to
// expect a clean audit and marks the entry MENDED.
func TestChaosDropTwentySeedTwoDiverges(t *testing.T) {
	_, violations, err := runChaos(2, 16, 300, settleTime, "drop any 0.2", nil)
	if err != nil {
		t.Fatal(err)
	}
	const want = "maxmin-divergence: gap 96000 exceeds 1e-06"
	if !slices.Contains(violations, want) {
		t.Fatalf("violations %q, want the pinned %q", violations, want)
	}
}

// TestChaosSweepDeterministicAcrossWorkers: the replicated chaos sweep
// must produce identical outcomes (violations, counters, events —
// everything) at any worker count.
func TestChaosSweepDeterministicAcrossWorkers(t *testing.T) {
	const plan = "at 60 cell-out off-3 for 30\nat 100 crash-signaling\ndrop any 0.15"
	sweep := func(workers int) ([]string, runner.Stats, error) {
		return seedTrials(1, 4, workers, func(seed int64) (string, error) {
			mgr, violations, err := runChaos(seed, 8, 180, 30, plan, nil)
			if err != nil {
				return "", err
			}
			return outcome(mgr, violations), nil
		})
	}
	serial, _, err := sweep(1)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 8} {
		got, st, err := sweep(workers)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if st.Failed != 0 {
			t.Fatalf("workers=%d: unexpected stats %+v", workers, st)
		}
		if !slices.Equal(got, serial) {
			t.Fatalf("workers=%d: sweep diverged from serial\ngot  %q\nwant %q", workers, got, serial)
		}
	}
}

// chaosTraceHead returns the first n lines of the pinned scenario's trace.
func chaosTraceHead(t *testing.T, n int) []byte {
	t.Helper()
	var buf bytes.Buffer
	_, violations, err := runChaos(1, 8, 120, 30, chaosGoldenPlan, &buf)
	if err != nil {
		t.Fatal(err)
	}
	trace := buf.Bytes()
	if len(violations) != 0 {
		t.Fatalf("pinned scenario no longer audit-clean: %v", violations)
	}
	if !bytes.Contains(trace, []byte(`"type":"fault-`)) {
		t.Fatal("trace records no fault events")
	}
	lines := bytes.SplitAfter(trace, []byte("\n"))
	if len(lines) < n {
		t.Fatalf("trace has only %d lines, want at least %d", len(lines), n)
	}
	return bytes.Join(lines[:n], nil)
}

// TestChaosTraceGolden pins the head of the seed-1 chaos event stream.
// Any byte of drift means fault injection, retransmission scheduling, or
// event publication changed order — regenerate deliberately with
// `go test ./internal/sim -run TestChaosTraceGolden -update`.
func TestChaosTraceGolden(t *testing.T) {
	got := chaosTraceHead(t, 60)
	golden := filepath.Join("testdata", "faulttrace.golden")
	if *update {
		if err := os.MkdirAll(filepath.Dir(golden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("chaos trace drifted from %s\n--- got ---\n%s\n--- want ---\n%s", golden, got, want)
	}
}

// TestChaosTraceDeterminismAcrossRuns repeats a seed-1 chaos run at full
// size (16 portables, 600 s plus 60 s of settling), with every component
// fault of the grammar in the plan, and requires the whole trace — not the golden's
// 60-line head — to come out byte-identical every time. Injector draws,
// (fault, restoration) post order and recovery scheduling all sit on
// this path; a map-order walk in any of them shows within a few runs.
func TestChaosTraceDeterminismAcrossRuns(t *testing.T) {
	const plan = "delay maxmin 0.05 0.002\ndup signal 0.05\n" +
		"at 120 cell-out off-2 for 60\nat 200 link-down sw-west->core for 30\n" +
		"at 300 crash-zone west\nat 380 blackout cafe for 30\nat 450 crash-signaling\n" +
		"drop any 0.1\n"
	var first []byte
	for run := 0; run < 5; run++ {
		var buf bytes.Buffer
		mgr, _, err := runChaos(1, 16, 600, settleTime, plan, &buf)
		if err != nil {
			t.Fatal(err)
		}
		// 5 timed faults + 2 restorations, and message faults on top.
		for _, ev := range []string{"link-up", "cell-restore", "blackout", "crash-zone", "crash-signaling"} {
			if !bytes.Contains(buf.Bytes(), []byte(`"type":"fault-component","ev":{"action":"`+ev+`"`)) {
				t.Fatalf("trace records no %s component fault", ev)
			}
		}
		if n := mgr.Met.Counter.Get(core.CtrFaultsInjected); n <= 7 {
			t.Fatalf("no message faults fired: %d injected", n)
		}
		if first == nil {
			first = buf.Bytes()
			continue
		}
		if again := buf.Bytes(); !bytes.Equal(again, first) {
			t.Fatalf("run %d diverged from run 0 (%d vs %d bytes): %s", run, len(again), len(first), firstDiffLine(first, again))
		}
	}
}
