package sim

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"armnet/internal/runner"
)

var updateChaos = flag.Bool("update-chaos", false, "rewrite the chaos trace golden from current output")

// chaosGoldenCfg is the pinned seed-1 chaos scenario: 10% control-message
// loss, a cell outage mid-run, and a signaling-plane crash.
var chaosGoldenCfg = ChaosConfig{
	Seed: 1, Portables: 8, Duration: 120, Settle: 30,
	LossRate: 0.1,
	Plan:     "at 30 cell-out off-2 for 30\nat 80 crash-signaling",
}

// TestChaosAuditorCleanUnderLoss is the headline recovery claim: at 10%
// control-message loss with component crashes, retransmission, leases,
// and re-ADVERTISE bring the system back to a state where every recovery
// invariant holds — no leaked holds, ledger conservation, no orphaned
// allocations, and maxmin re-convergence to the water-filling oracle.
func TestChaosAuditorCleanUnderLoss(t *testing.T) {
	plan := "at 120 cell-out off-2 for 60\nat 300 crash-zone west\nat 450 crash-signaling"
	for _, seed := range []int64{1, 2, 3} {
		res, err := RunChaos(ChaosConfig{Seed: seed, LossRate: 0.1, Plan: plan})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if len(res.Violations) != 0 {
			t.Fatalf("seed %d: recovery invariants violated:\n%s", seed, strings.Join(res.Violations, "\n"))
		}
		if res.FaultsInjected == 0 {
			t.Fatalf("seed %d: the fault plan never fired", seed)
		}
		if res.Handoffs == 0 {
			t.Fatalf("seed %d: workload produced no handoffs", seed)
		}
	}
}

// TestChaosRetransmissionRecovers checks the lossy-control-plane path end
// to end: drops must be observed, retransmitted, and still leave the run
// audit-clean.
func TestChaosRetransmissionRecovers(t *testing.T) {
	res, err := RunChaos(ChaosConfig{Seed: 1, LossRate: 0.2, Duration: 300})
	if err != nil {
		t.Fatal(err)
	}
	if res.Retransmits == 0 {
		t.Fatal("20% loss produced no retransmissions")
	}
	if len(res.Violations) != 0 {
		t.Fatalf("violations: %v", res.Violations)
	}
}

// TestChaosSweepDeterministicAcrossWorkers: the replicated chaos sweep
// must produce identical results (violations, counters, gap — everything)
// at any worker count.
func TestChaosSweepDeterministicAcrossWorkers(t *testing.T) {
	cfg := ChaosConfig{
		Seed: 1, Portables: 8, Duration: 180, Settle: 30,
		LossRate: 0.15,
		Plan:     "at 60 cell-out off-3 for 30\nat 100 crash-signaling",
	}
	sweep := func(workers int) ([]ChaosResult, runner.Stats, error) {
		return seedTrials(cfg.Seed, 4, workers, func(seed int64) (ChaosResult, error) {
			c := cfg
			c.Seed = seed
			return RunChaos(c)
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
		if !reflect.DeepEqual(got, serial) {
			t.Fatalf("workers=%d: sweep diverged from serial\ngot  %+v\nwant %+v", workers, got, serial)
		}
	}
}

// chaosTraceHead returns the first n lines of the pinned scenario's trace.
func chaosTraceHead(t *testing.T, n int) []byte {
	t.Helper()
	var buf bytes.Buffer
	res, err := runChaos(chaosGoldenCfg, &buf)
	if err != nil {
		t.Fatal(err)
	}
	trace := buf.Bytes()
	if len(res.Violations) != 0 {
		t.Fatalf("pinned scenario no longer audit-clean: %v", res.Violations)
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
// `go test ./internal/sim -run TestChaosTraceGolden -update-chaos`.
func TestChaosTraceGolden(t *testing.T) {
	got := chaosTraceHead(t, 60)
	golden := filepath.Join("testdata", "faulttrace.golden")
	if *updateChaos {
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

// TestChaosTraceDeterminismAcrossRuns repeats the pinned chaos scenario
// at the harness's full default size, with every component fault of the
// grammar in the plan, and requires the whole trace — not the golden's
// 60-line head — to come out byte-identical every time. Injector draws,
// (fault, restoration) post order and recovery scheduling all sit on
// this path; a map-order walk in any of them shows within a few runs.
func TestChaosTraceDeterminismAcrossRuns(t *testing.T) {
	cfg := chaosGoldenCfg
	cfg.Portables, cfg.Duration, cfg.Settle = 0, 0, 0 // defaults: 16 portables, 600 s + 60 s
	cfg.Plan = "delay maxmin 0.05 0.002\ndup signal 0.05\n" +
		"at 120 cell-out off-2 for 60\nat 200 link-down sw-west->core for 30\n" +
		"at 300 crash-zone west\nat 380 blackout cafe for 30\nat 450 crash-signaling\n"
	var first []byte
	for run := 0; run < 5; run++ {
		var buf bytes.Buffer
		res, err := runChaos(cfg, &buf)
		if err != nil {
			t.Fatal(err)
		}
		// 5 timed faults + 2 restorations, and message faults on top.
		for _, ev := range []string{"link-up", "cell-restore", "blackout", "crash-zone", "crash-signaling"} {
			if !bytes.Contains(buf.Bytes(), []byte(`"type":"fault-component","ev":{"action":"`+ev+`"`)) {
				t.Fatalf("trace records no %s component fault", ev)
			}
		}
		if res.FaultsInjected <= 7 {
			t.Fatalf("no message faults fired: %d injected", res.FaultsInjected)
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
