package faults

import (
	"errors"
	"strings"
	"testing"

	"armnet/internal/admission"
	"armnet/internal/clock"
	"armnet/internal/des"
	"armnet/internal/eventbus"
	"armnet/internal/topology"
)

const samplePlan = `
# chaos: 10% control loss, slow maxmin, mid-run outages
drop signal 0.1
drop maxmin 0.1
delay maxmin 0.05 0.005
dup any 0.02
at 100 link-down bb:r1-r2 for 50
at 300 cell-out off-1
at 350 cell-restore off-1
at 400 crash-zone z1
at 500 blackout caf-1 for 30
at 600 crash-signaling
`

func TestParsePlan(t *testing.T) {
	p, err := ParsePlan(strings.NewReader(samplePlan))
	if err != nil {
		t.Fatalf("ParsePlan: %v", err)
	}
	if len(p.Rules) != 4 {
		t.Fatalf("got %d message rules, want 4", len(p.Rules))
	}
	if len(p.Timed) != 6 {
		t.Fatalf("got %d timed faults, want 6", len(p.Timed))
	}
	if r := p.Rules[2]; r.Action != "delay" || r.Proto != "maxmin" || r.Prob != 0.05 || r.Delay != 0.005 {
		t.Fatalf("bad delay rule: %+v", r)
	}
	if f := p.Timed[0]; f.Action != "link-down" || f.Target != "bb:r1-r2" || f.For != 50 {
		t.Fatalf("bad timed fault: %+v", f)
	}
	if p.Empty() {
		t.Fatal("plan should not be empty")
	}
}

func TestParsePlanRoundTrip(t *testing.T) {
	p, err := ParsePlan(strings.NewReader(samplePlan))
	if err != nil {
		t.Fatalf("ParsePlan: %v", err)
	}
	again, err := ParsePlan(strings.NewReader(p.String()))
	if err != nil {
		t.Fatalf("re-parse of String(): %v\n%s", err, p.String())
	}
	if got, want := again.String(), p.String(); got != want {
		t.Fatalf("round trip drifted:\n%s\nvs\n%s", got, want)
	}
}

func TestParsePlanErrors(t *testing.T) {
	bad := []string{
		"drop signal 1.5",          // prob out of range
		"drop tcp 0.1",             // unknown proto
		"delay signal 0.1",         // missing delay value
		"at -5 crash-signaling",    // negative time
		"at 10 blackout caf-1",     // blackout without duration
		"at 10 link-down",          // missing target
		"at 10 explode everything", // unknown action
		"frobnicate 1 2 3",         // unknown directive
		"drop signal NaN",          // non-finite
		"at 10 link-up l for 5",    // `for` on a restore
	}
	for _, in := range bad {
		if _, err := ParsePlan(strings.NewReader(in)); err == nil {
			t.Errorf("ParsePlan(%q) accepted invalid input", in)
		}
	}
}

func TestEmptyPlanDrawsNothing(t *testing.T) {
	in := NewInjector(&Plan{}, 1, nil)
	for i := 0; i < 100; i++ {
		if drop, delay := in.DeliverSignal("c", i); drop || delay != 0 {
			t.Fatal("empty plan must not perturb delivery")
		}
	}
	if in.Drops+in.Dups+in.Delays != 0 {
		t.Fatal("empty plan must not count faults")
	}
	var nilInj *Injector
	if drop, _ := nilInj.DeliverSignal("c", 0); drop {
		t.Fatal("nil injector must deliver")
	}
}

func TestInjectorDeterminism(t *testing.T) {
	plan, err := ParsePlan(strings.NewReader("drop any 0.3\ndelay any 0.2 0.01"))
	if err != nil {
		t.Fatal(err)
	}
	run := func() []bool {
		in := NewInjector(plan, 42, nil)
		out := make([]bool, 0, 200)
		for i := 0; i < 200; i++ {
			drop, _ := in.DeliverMaxmin("c", i, i%5 == 0)
			out = append(out, drop)
		}
		return out
	}
	a, b := run(), run()
	drops := 0
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("draw %d differs between identical runs", i)
		}
		if a[i] {
			drops++
		}
	}
	if drops == 0 || drops == len(a) {
		t.Fatalf("drop rule should fire sometimes, got %d/%d", drops, len(a))
	}
}

// recordingDriver logs component-fault calls in order.
type recordingDriver struct {
	calls []string
}

func (d *recordingDriver) FailLink(l string) error {
	d.calls = append(d.calls, "fail-link "+l)
	return nil
}
func (d *recordingDriver) RestoreLink(l string) error {
	d.calls = append(d.calls, "restore-link "+l)
	return nil
}
func (d *recordingDriver) FailCell(c string) error {
	d.calls = append(d.calls, "fail-cell "+c)
	return nil
}
func (d *recordingDriver) RestoreCell(c string) error {
	d.calls = append(d.calls, "restore-cell "+c)
	return nil
}
func (d *recordingDriver) CrashZone(z string) error {
	d.calls = append(d.calls, "crash-zone "+z)
	return nil
}
func (d *recordingDriver) Blackout(c string, dur float64) error {
	d.calls = append(d.calls, "blackout "+c)
	return nil
}
func (d *recordingDriver) CrashSignaling() error {
	d.calls = append(d.calls, "crash-signaling")
	return nil
}

func TestArmSchedulesTimedEvents(t *testing.T) {
	plan, err := ParsePlan(strings.NewReader(
		"at 10 link-down l1 for 5\nat 20 crash-zone z\nat 30 crash-signaling"))
	if err != nil {
		t.Fatal(err)
	}
	sim := des.New()
	bus := eventbus.New(sim)
	var events []string
	bus.Subscribe(func(r eventbus.Record) {
		ev := r.Event.(eventbus.FaultComponent)
		events = append(events, ev.Action)
	}, eventbus.KindFaultComponent)
	d := &recordingDriver{}
	in := NewInjector(plan, 1, bus)
	in.Arm(clock.Sim(sim), d)
	if err := sim.RunUntil(100); err != nil {
		t.Fatal(err)
	}
	want := []string{"fail-link l1", "restore-link l1", "crash-zone z", "crash-signaling"}
	if len(d.calls) != len(want) {
		t.Fatalf("driver calls %v, want %v", d.calls, want)
	}
	for i := range want {
		if d.calls[i] != want[i] {
			t.Fatalf("driver calls %v, want %v", d.calls, want)
		}
	}
	wantEv := []string{"link-down", "link-up", "crash-zone", "crash-signaling"}
	if len(events) != len(wantEv) {
		t.Fatalf("events %v, want %v", events, wantEv)
	}
	if in.Components != 4 {
		t.Fatalf("Components = %d, want 4", in.Components)
	}
}

func TestArmRecordsDriverErrors(t *testing.T) {
	plan, _ := ParsePlan(strings.NewReader("at 1 crash-zone nowhere"))
	sim := des.New()
	in := NewInjector(plan, 1, nil)
	in.Arm(clock.Sim(sim), failingDriver{})
	if err := sim.RunUntil(10); err != nil {
		t.Fatal(err)
	}
	if len(in.Errors) != 1 || !strings.Contains(in.Errors[0], "crash-zone nowhere") {
		t.Fatalf("Errors = %v, want one crash-zone failure", in.Errors)
	}
}

type failingDriver struct{}

func (failingDriver) FailLink(string) error          { return errBoom }
func (failingDriver) RestoreLink(string) error       { return errBoom }
func (failingDriver) FailCell(string) error          { return errBoom }
func (failingDriver) RestoreCell(string) error       { return errBoom }
func (failingDriver) CrashZone(string) error         { return errBoom }
func (failingDriver) Blackout(string, float64) error { return errBoom }
func (failingDriver) CrashSignaling() error          { return errBoom }

var errBoom = errors.New("boom")

func auditLedger(t *testing.T) *admission.Ledger {
	t.Helper()
	b := topology.NewBackbone()
	if _, err := b.AddNode(topology.Node{ID: "a", Kind: topology.KindSwitch}); err != nil {
		t.Fatal(err)
	}
	if _, err := b.AddNode(topology.Node{ID: "b", Kind: topology.KindSwitch}); err != nil {
		t.Fatal(err)
	}
	if _, err := b.AddLink(topology.Link{From: "a", To: "b", Capacity: 1e6, PropDelay: 1e-3}); err != nil {
		t.Fatal(err)
	}
	return admission.NewLedger(b)
}

func TestAuditorCleanRun(t *testing.T) {
	lg := auditLedger(t)
	a := &Auditor{
		Ledger:         lg,
		PendingHolds:   func() float64 { return 0 },
		LiveConns:      func() []string { return nil },
		ConvergenceGap: func() float64 { return 0 },
	}
	if v := a.CheckFinal(); len(v) != 0 {
		t.Fatalf("clean ledger reported violations: %v", v)
	}
}

func TestAuditorDetectsViolations(t *testing.T) {
	lg := auditLedger(t)
	a := &Auditor{
		Ledger:         lg,
		PendingHolds:   func() float64 { return 64e3 }, // leaked hold
		LiveConns:      func() []string { return nil },
		ConvergenceGap: func() float64 { return 1.0 }, // diverged
	}
	v := a.CheckFinal()
	if len(v) != 2 {
		t.Fatalf("violations = %v, want leaked-holds and maxmin-divergence", v)
	}
	if !strings.Contains(v[0], "leaked-holds") || !strings.Contains(v[1], "maxmin-divergence") {
		t.Fatalf("unexpected violations %v", v)
	}
}

// TestDirectiveTableIsCompleteAndStrict walks the grammar's directive
// table: every action parses and round-trips through String on each
// plane that executes it, and on a plane that does not it is an error
// carrying the line number — never a silent skip.
func TestDirectiveTableIsCompleteAndStrict(t *testing.T) {
	for action, d := range directives {
		line := action + " any 0.5"
		if d.seconds {
			line += " 0.01"
		}
		if !d.rule {
			line = "at 1 " + action
			if d.target {
				line += " tgt"
			}
			if d.dur {
				line += " for 2"
			}
		}
		spec := "# line 1 is a comment\n" + line + "\n"
		for _, pl := range []plane{simPlane, wirePlane} {
			p, err := parse(strings.NewReader(spec), pl)
			if d.planes&pl == 0 {
				want := planePkg[pl] + ": line 2: " + action
				if err == nil || !errors.Is(err, errOffPlane) || !strings.HasPrefix(err.Error(), want) {
					t.Errorf("%s on the %s plane: err = %v, want %q… wrapping errOffPlane", action, planePkg[pl], err, want)
				}
				continue
			}
			if err != nil {
				t.Errorf("%s on its own %s plane: %v", action, planePkg[pl], err)
				continue
			}
			if got := p.String(); got != line+"\n" {
				t.Errorf("%s: String() = %q, want %q", action, got, line+"\n")
			}
			if d.restore != "" {
				if end, ok := p.Timed[0].Restoration(); !ok || end.Action != d.restore || end.At != 3 {
					t.Errorf("%s: restoration %+v %v, want %s at 3", action, end, ok, d.restore)
				}
			}
		}
	}
	// The link filter is the one wire-only piece that is not an action.
	if _, err := ParsePlan(strings.NewReader("drop any 0.1 on x")); !errors.Is(err, errOffPlane) || !strings.Contains(err.Error(), "line 1") {
		t.Errorf("`on <link>` on the sim plane: %v", err)
	}
}

// TestStrictPlanes spells out the acceptance examples: each of these is
// a valid line of the grammar, on the other plane.
func TestStrictPlanes(t *testing.T) {
	for _, spec := range []string{"reorder any 0.1 0.01", "drop any 0.1 on x", "at 1 partition east for 2", "at 1 crash east"} {
		if _, err := ParsePlan(strings.NewReader(spec)); err == nil || !strings.HasPrefix(err.Error(), "faults: line 1: ") {
			t.Errorf("faults.ParsePlan(%q) = %v, want a line-1 error", spec, err)
		}
	}
	for _, spec := range []string{"at 1 cell-out off-2 for 3", "at 1 crash-signaling", "at 1 link-down l"} {
		if _, err := ParseWirePlan(strings.NewReader(spec)); err == nil || !strings.HasPrefix(err.Error(), "netfaults: line 1: ") {
			t.Errorf("ParseWirePlan(%q) = %v, want a line-1 error", spec, err)
		}
	}
}
