package sim

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"armnet/internal/core"
	"armnet/internal/eventbus"
	"armnet/internal/faults"
	"armnet/internal/mobility"
	"armnet/internal/overload"
	"armnet/internal/randx"
	"armnet/internal/runner"
	"armnet/internal/topology"
)

// The load ramp's fixed operating point: a population of portables
// arrives staggered over the ramp window, each opening several signaled
// connections sized so the offered load exceeds the campus capacity
// region, with bounded retries keeping the pressure on.
const (
	// overloadPortables arrive over overloadRamp seconds: portable i at
	// overloadRamp·i/overloadPortables.
	overloadPortables = 40
	overloadRamp      = 240
	// overloadDuration is the simulated workload time, in seconds.
	overloadDuration = 420
	// overloadTth is the static/mobile classification threshold, in
	// seconds — aggressive, so the ramp produces adaptable static
	// connections whose excess the degrade cascades can reclaim.
	overloadTth = 60
	// overloadConnsPer is how many connections each portable opens on
	// arrival.
	overloadConnsPer = 2
	// overloadLifetime closes each admitted connection after this many
	// seconds, creating the churn that lets cells de-escalate.
	overloadLifetime = 150
	// overloadRetries re-attempts a failed or shed setup, each
	// overloadRetryBackoff seconds after the failure.
	overloadRetries      = 2
	overloadRetryBackoff = 7
	// overloadBMin and overloadBMax are the per-connection bandwidth
	// bounds, in bits/s — a tenth of a campus downlink per minimum, so
	// nine busy cells saturate.
	overloadBMin, overloadBMax = 160e3, 320e3
)

// runOverload runs the load ramp on the campus under pol (nil disarms
// overload control) and plan (faults.ParsePlan's grammar), streaming the
// event trace to traceW when it is non-nil. It returns the finished
// manager, the run's overload transitions in order ("stage <cell>
// <from>><to>", "breaker <from>><to>") and the violations of the
// degrade-before-drop audit (with a policy) and the fault audit (with a
// non-empty plan).
func runOverload(seed int64, pol *overload.Policy, plan string, traceW io.Writer) (*core.Manager, []string, []string, error) {
	fp, err := faults.ParsePlan(strings.NewReader(plan))
	if err != nil {
		return nil, nil, nil, err
	}
	env, err := topology.BuildCampus()
	if err != nil {
		return nil, nil, nil, err
	}
	// The ramp: portable i's whole walk — initial placement included —
	// shifts by overloadRamp·i/overloadPortables, so arrivals spread over
	// the ramp window and the offered load climbs toward its peak.
	// Per-portable RNGs keep every walk independent of the population
	// size.
	trace := &mobility.Trace{}
	for i := 0; i < overloadPortables; i++ {
		offset := overloadRamp * float64(i) / float64(overloadPortables)
		one, err := mobility.RandomWalk(env.Universe, []string{fmt.Sprintf("p%02d", i)}, faultDwell, overloadDuration-offset, randx.New(seed+1000+int64(i)*7919))
		if err != nil {
			return nil, nil, nil, err
		}
		for _, mv := range one.Moves {
			mv.Time += offset
			trace.Moves = append(trace.Moves, mv)
		}
	}
	w := walk{
		env:   env,
		cfg:   core.Config{Seed: seed, Tth: overloadTth, Faults: fp, Overload: pol},
		trace: trace, req: walkRequest(overloadBMin, overloadBMax),
		horizon: overloadDuration + settleTime, traceW: traceW,
	}
	mgr, err := w.start()
	if err != nil {
		return nil, nil, nil, err
	}
	sim := mgr.Sim
	// open retries shed, fast-failed and rejected setups a bounded
	// number of times — the impatient-user behavior that keeps pressure
	// on the control plane during the ramp.
	var open func(portable string, attempt int)
	open = func(portable string, attempt int) {
		retry := func() {
			if attempt < overloadRetries {
				sim.PostAfter(overloadRetryBackoff, func() { open(portable, attempt+1) })
			}
		}
		err := mgr.OpenConnectionAsync(portable, w.req, func(connID string, err error) {
			if err != nil {
				retry()
				return
			}
			sim.PostAfter(overloadLifetime, func() { _ = mgr.CloseConnection(connID) })
		})
		// A synchronous refusal of a portable that is gone is final;
		// sheds and breaker fast-fails retry like any failure.
		if err != nil && mgr.Portable(portable) != nil {
			retry()
		}
	}
	w.open = func(_ *walk, portable string) {
		for c := 0; c < overloadConnsPer; c++ {
			open(portable, 0)
		}
	}
	var path []string
	eventbus.On(mgr.Bus, func(ev eventbus.OverloadStage) {
		path = append(path, "stage "+ev.Cell+" "+ev.From+">"+ev.To)
	})
	eventbus.On(mgr.Bus, func(ev eventbus.BreakerState) { path = append(path, "breaker "+ev.From+">"+ev.To) })
	var audits []func() []string
	if pol != nil {
		oaud := mgr.OverloadAuditor()
		audits = append(audits, func() []string { return oaud.Violations })
	}
	if !fp.Empty() {
		audits = append(audits, mgr.FaultAuditor().CheckFinal)
	}
	violations, err := w.run(audits...)
	return mgr, path, violations, err
}

// defaultPolicy is the reference overload policy the ramp runs under.
func defaultPolicy() *overload.Policy {
	p := overload.Default()
	return &p
}

// TestOverloadRampAudited is the headline robustness claim: under a
// load ramp that exceeds the capacity region, the staged response runs
// (degrade cascades fire, setups are shed) and the audited invariant
// holds — no handoff is dropped while a degradable connection still
// holds more than b_min on the contended link.
func TestOverloadRampAudited(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		mgr, path, violations, err := runOverload(seed, defaultPolicy(), "", nil)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if len(violations) != 0 {
			t.Fatalf("seed %d: invariant violations:\n%s", seed, strings.Join(violations, "\n"))
		}
		ctr := mgr.Met.Counter
		if ctr.Get(core.CtrDegradeCascades) == 0 {
			t.Fatalf("seed %d: no degrade cascades fired", seed)
		}
		if ctr.Get(core.CtrShedSetups) == 0 {
			t.Fatalf("seed %d: no setups were shed", seed)
		}
		if !slices.ContainsFunc(path, func(p string) bool { return strings.HasPrefix(p, "stage ") }) {
			t.Fatalf("seed %d: no cell ever left the normal stage", seed)
		}
		if ctr.Get(core.CtrHandoffTried) == 0 {
			t.Fatalf("seed %d: workload produced no handoffs", seed)
		}
	}
}

// TestOverloadBreakerLifecycle pins the circuit breaker's behavior at
// seed 1: it must trip on the setup-failure rate, half-open after the
// cooldown, and eventually close on a successful probe — and the whole
// transition path must be reproducible run to run.
func TestOverloadBreakerLifecycle(t *testing.T) {
	mgr, path, _, err := runOverload(1, defaultPolicy(), "", nil)
	if err != nil {
		t.Fatal(err)
	}
	if mgr.Met.Counter.Get(core.CtrBreakerTrips) == 0 {
		t.Fatal("breaker never tripped")
	}
	if mgr.Met.Counter.Get(core.CtrBreakerFastFails) == 0 {
		t.Fatal("open breaker never fast-failed a setup")
	}
	for _, want := range []string{"breaker closed>open", "breaker open>half-open", "breaker half-open>closed"} {
		if !slices.Contains(path, want) {
			t.Fatalf("breaker path missing %q: %s", want, path)
		}
	}
	_, again, _, err := runOverload(1, defaultPolicy(), "", nil)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(again, path) {
		t.Fatalf("overload path not deterministic:\nfirst  %v\nsecond %v", path, again)
	}
}

// TestOverloadNilPolicyZeroCost: with no policy the subsystem must not
// exist — no overload events of any kind, zero overload counters, and a
// byte-identical trace run to run. (That the nil policy also leaves
// pre-existing scenarios untouched is pinned by the campus and chaos
// trace goldens, which run without one.)
func TestOverloadNilPolicyZeroCost(t *testing.T) {
	var buf, buf2 bytes.Buffer
	mgr, path, _, err := runOverload(1, nil, "", &buf)
	if err != nil {
		t.Fatal(err)
	}
	trace := buf.Bytes()
	for _, kind := range []string{"overload-stage", "setup-shed", "degrade-cascade", "breaker-state"} {
		if bytes.Contains(trace, []byte(`"type":"`+kind+`"`)) {
			t.Fatalf("nil policy emitted %s events", kind)
		}
	}
	for _, c := range []core.Ctr{core.CtrShedSetups, core.CtrDegradeCascades, core.CtrBreakerTrips, core.CtrBreakerFastFails} {
		if n := mgr.Met.Counter.Get(c); n != 0 {
			t.Fatalf("nil policy moved %s to %d", c, n)
		}
	}
	if len(path) != 0 {
		t.Fatalf("nil policy produced stage/breaker transitions: %v", path)
	}
	if _, _, _, err := runOverload(1, nil, "", &buf2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(trace, buf2.Bytes()) {
		t.Fatal("nil-policy trace not byte-identical across runs")
	}
}

// faultyRampPlan is a lossy control plane plus a mid-ramp cell outage.
const faultyRampPlan = "at 150 cell-out off-2 for 60\ndrop any 0.1"

// TestOverloadComposesWithFaults runs chaos and overload together, with
// both auditors armed. Both subsystems must fire and both invariant sets
// must hold.
func TestOverloadComposesWithFaults(t *testing.T) {
	mgr, _, violations, err := runOverload(1, defaultPolicy(), faultyRampPlan, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(violations) != 0 {
		t.Fatalf("invariant violations:\n%s", strings.Join(violations, "\n"))
	}
	ctr := mgr.Met.Counter
	if ctr.Get(core.CtrFaultsInjected) == 0 {
		t.Fatal("the fault plan never fired")
	}
	if ctr.Get(core.CtrRetransmits) == 0 {
		t.Fatal("10% loss produced no retransmissions")
	}
	if ctr.Get(core.CtrBreakerTrips) == 0 && ctr.Get(core.CtrShedSetups) == 0 && ctr.Get(core.CtrDegradeCascades) == 0 {
		t.Fatal("overload control never acted")
	}
}

// TestOverloadSweepDeterministicAcrossWorkers: the replicated sweep
// must produce identical outcomes — overload paths, violations,
// counters, everything — at any worker count.
func TestOverloadSweepDeterministicAcrossWorkers(t *testing.T) {
	sweep := func(workers int) ([]string, runner.Stats, error) {
		return seedTrials(1, 4, workers, func(seed int64) (string, error) {
			mgr, path, violations, err := runOverload(seed, defaultPolicy(), "drop any 0.05", nil)
			if err != nil {
				return "", err
			}
			return fmt.Sprintf("%s path=%q", outcome(mgr, violations), path), nil
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

// overloadTraceHead returns the first n lines of the pinned seed-1 ramp's
// trace under the reference policy, after re-checking that the scenario
// still exercises the whole subsystem.
func overloadTraceHead(t *testing.T, n int) []byte {
	t.Helper()
	var buf bytes.Buffer
	_, _, violations, err := runOverload(1, defaultPolicy(), "", &buf)
	if err != nil {
		t.Fatal(err)
	}
	trace := buf.Bytes()
	if len(violations) != 0 {
		t.Fatalf("pinned scenario no longer audit-clean: %v", violations)
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
// `go test ./internal/sim -run TestOverloadTraceGolden -update`.
func TestOverloadTraceGolden(t *testing.T) {
	got := overloadTraceHead(t, 80)
	golden := filepath.Join("testdata", "overloadtrace.golden")
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
		t.Fatalf("overload trace drifted from %s\n--- got ---\n%s\n--- want ---\n%s", golden, got, want)
	}
}

// TestOverloadTraceDeterminismAcrossRuns repeats the pinned load ramp
// and the same ramp under faultyRampPlan, and requires each whole trace
// (15k+ lines, not the golden's 80-line head) to come out byte-identical
// every time.
func TestOverloadTraceDeterminismAcrossRuns(t *testing.T) {
	for name, plan := range map[string]string{"golden": "", "with-faults": faultyRampPlan} {
		var first []byte
		for run := 0; run < 5; run++ {
			var buf bytes.Buffer
			if _, _, _, err := runOverload(1, defaultPolicy(), plan, &buf); err != nil {
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
