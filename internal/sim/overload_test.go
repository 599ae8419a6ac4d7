package sim

import (
	"bytes"
	"context"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"armnet/internal/runner"
)

var updateOverload = flag.Bool("update-overload", false, "rewrite the overload trace golden from current output")

// overloadGoldenCfg is the pinned seed-1 load ramp under the reference
// policy: 40 portables arriving over 240 s, two signaled connections
// each, sized so the campus capacity region is exceeded mid-ramp.
var overloadGoldenCfg = OverloadConfig{Seed: 1, Policy: "default"}

// TestOverloadRampAudited is the headline robustness claim: under a
// load ramp that exceeds the capacity region, the staged response runs
// (degrade cascades fire, setups are shed) and the audited invariant
// holds — no handoff is dropped while a degradable connection still
// holds more than b_min on the contended link.
func TestOverloadRampAudited(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		res, err := RunOverload(OverloadConfig{Seed: seed, Policy: "default"})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if len(res.Violations) != 0 {
			t.Fatalf("seed %d: invariant violations:\n%s", seed, strings.Join(res.Violations, "\n"))
		}
		if res.DegradeCascades == 0 {
			t.Fatalf("seed %d: no degrade cascades fired", seed)
		}
		if res.Sheds == 0 {
			t.Fatalf("seed %d: no setups were shed", seed)
		}
		if res.PeakStage == "normal" {
			t.Fatalf("seed %d: no cell ever left the normal stage", seed)
		}
		if res.Handoffs == 0 {
			t.Fatalf("seed %d: workload produced no handoffs", seed)
		}
	}
}

// TestOverloadBreakerLifecycle pins the circuit breaker's behavior at
// seed 1: it must trip on the setup-failure rate, half-open after the
// cooldown, and eventually close on a successful probe — and the whole
// transition path must be reproducible run to run.
func TestOverloadBreakerLifecycle(t *testing.T) {
	res, err := RunOverload(overloadGoldenCfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.BreakerTrips == 0 {
		t.Fatal("breaker never tripped")
	}
	if res.BreakerFastFails == 0 {
		t.Fatal("open breaker never fast-failed a setup")
	}
	path := strings.Join(res.BreakerPath, " ")
	for _, want := range []string{"closed>open", "open>half-open", "half-open>closed"} {
		if !strings.Contains(path, want) {
			t.Fatalf("breaker path missing %q: %s", want, path)
		}
	}
	again, err := RunOverload(overloadGoldenCfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(again.BreakerPath, res.BreakerPath) {
		t.Fatalf("breaker path not deterministic:\nfirst  %v\nsecond %v", res.BreakerPath, again.BreakerPath)
	}
}

// TestOverloadNilPolicyZeroCost: with no policy the subsystem must not
// exist — no overload events of any kind, zero overload counters, and a
// byte-identical trace run to run. (That the nil policy also leaves
// pre-existing scenarios untouched is pinned by the campus and chaos
// trace goldens, which run without one.)
func TestOverloadNilPolicyZeroCost(t *testing.T) {
	cfg := OverloadConfig{Seed: 1} // Policy empty: disabled
	var buf, buf2 bytes.Buffer
	res, err := runOverload(cfg, &buf)
	if err != nil {
		t.Fatal(err)
	}
	trace := buf.Bytes()
	for _, kind := range []string{"overload-stage", "setup-shed", "degrade-cascade", "breaker-state"} {
		if bytes.Contains(trace, []byte(`"type":"`+kind+`"`)) {
			t.Fatalf("nil policy emitted %s events", kind)
		}
	}
	if res.Sheds != 0 || res.DegradeCascades != 0 || res.BreakerTrips != 0 || res.BreakerFastFails != 0 {
		t.Fatalf("nil policy moved overload counters: %+v", res)
	}
	if res.StageChanges != 0 || len(res.BreakerPath) != 0 {
		t.Fatalf("nil policy produced stage/breaker transitions: %+v", res)
	}
	if _, err := runOverload(cfg, &buf2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(trace, buf2.Bytes()) {
		t.Fatal("nil-policy trace not byte-identical across runs")
	}
}

// TestOverloadComposesWithFaults runs chaos and overload together: a
// lossy control plane plus a mid-ramp cell outage, with both auditors
// armed. Both subsystems must fire and both invariant sets must hold.
func TestOverloadComposesWithFaults(t *testing.T) {
	res, err := RunOverload(OverloadConfig{
		Seed:     1,
		Policy:   "default",
		LossRate: 0.1,
		Plan:     "at 150 cell-out off-2 for 60",
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Violations) != 0 {
		t.Fatalf("invariant violations:\n%s", strings.Join(res.Violations, "\n"))
	}
	if res.FaultsInjected == 0 {
		t.Fatal("the fault plan never fired")
	}
	if res.Retransmits == 0 {
		t.Fatal("10% loss produced no retransmissions")
	}
	if res.BreakerTrips == 0 && res.Sheds == 0 && res.DegradeCascades == 0 {
		t.Fatal("overload control never acted")
	}
}

// TestOverloadSweepDeterministicAcrossWorkers: the replicated sweep
// must produce identical results — breaker paths, violations, counters,
// everything — at any worker count.
func TestOverloadSweepDeterministicAcrossWorkers(t *testing.T) {
	cfg := OverloadConfig{Seed: 1, Policy: "default", LossRate: 0.05}
	sweep := func(workers int) ([]OverloadResult, runner.Stats, error) {
		return sweepSeeds(context.Background(), cfg.Seed, 4, workers, func(seed int64) (OverloadResult, error) {
			c := cfg
			c.Seed = seed
			return RunOverload(c)
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

// overloadTraceHead returns the first n lines of the pinned scenario's
// trace, after re-checking that the scenario still exercises the whole
// subsystem.
func overloadTraceHead(t *testing.T, n int) []byte {
	t.Helper()
	var buf bytes.Buffer
	res, err := runOverload(overloadGoldenCfg, &buf)
	if err != nil {
		t.Fatal(err)
	}
	trace := buf.Bytes()
	if len(res.Violations) != 0 {
		t.Fatalf("pinned scenario no longer audit-clean: %v", res.Violations)
	}
	for _, kind := range []string{"overload-stage", "setup-shed", "degrade-cascade", "breaker-state"} {
		if !bytes.Contains(trace, []byte(`"type":"`+kind+`"`)) {
			t.Fatalf("trace records no %s events", kind)
		}
	}
	lines := bytes.SplitAfter(trace, []byte("\n"))
	if len(lines) < n {
		t.Fatalf("trace has only %d lines, want at least %d", len(lines), n)
	}
	return bytes.Join(lines[:n], nil)
}

// TestOverloadTraceGolden pins the head of the seed-1 overload event
// stream. Any byte of drift means detector sampling, stage transitions,
// shedding, or breaker scheduling changed. Refresh intentionally with
// `go test ./internal/sim -run TestOverloadTraceGolden -update-overload`.
func TestOverloadTraceGolden(t *testing.T) {
	got := overloadTraceHead(t, 80)
	golden := filepath.Join("testdata", "overloadtrace.golden")
	if *updateOverload {
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
		t.Fatalf("overload trace drifted from %s\n--- got ---\n%s\n--- want ---\n%s", golden, got, want)
	}
}

// TestOverloadTraceDeterminismAcrossRuns repeats the pinned load ramp —
// already the harness's full size — and the same ramp under the
// TestOverloadComposesWithFaults plan, and requires each whole trace
// (15k+ lines, not the golden's 80-line head) to come out byte-identical
// every time.
func TestOverloadTraceDeterminismAcrossRuns(t *testing.T) {
	faulty := overloadGoldenCfg
	faulty.LossRate, faulty.Plan = 0.1, "at 150 cell-out off-2 for 60"
	for name, cfg := range map[string]OverloadConfig{"golden": overloadGoldenCfg, "with-faults": faulty} {
		var first []byte
		for run := 0; run < 5; run++ {
			var buf bytes.Buffer
			if _, err := runOverload(cfg, &buf); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if first == nil {
				first = buf.Bytes()
				continue
			}
			if again := buf.Bytes(); !bytes.Equal(again, first) {
				t.Fatalf("%s: run %d diverged from run 0 (%d vs %d bytes): %s", name, run, len(again), len(first), firstDiffLine(first, again))
			}
		}
		if faulty := bytes.Contains(first, []byte(`"type":"fault-`)); faulty != (name == "with-faults") {
			t.Fatalf("%s: fault events in trace: %v", name, faulty)
		}
	}
}
