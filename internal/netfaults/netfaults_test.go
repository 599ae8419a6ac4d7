package netfaults

import (
	"reflect"
	"testing"

	"armnet/internal/faults"
)

const samplePlan = `
# soak epoch plan
drop any 0.2
dup signal 0.1
delay maxmin 0.3 0.002
reorder any 0.25 0.004
drop signal 0.5 on sw-east->air-off-2
at 1 partition east for 2
at 0.8 crash west for 2.2
at 3 crash core
`

func mustParse(t *testing.T, spec string) *Plan {
	t.Helper()
	p, err := ParsePlanString(spec)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return p
}

func TestParsePlan(t *testing.T) {
	p := mustParse(t, samplePlan)
	wantRules := []faults.Rule{
		{Proto: "any", Action: "drop", Prob: 0.2},
		{Proto: "signal", Action: "dup", Prob: 0.1},
		{Proto: "maxmin", Action: "delay", Prob: 0.3, Delay: 0.002},
		{Proto: "any", Action: "reorder", Prob: 0.25, Delay: 0.004},
		{Proto: "signal", Action: "drop", Prob: 0.5, Link: "sw-east->air-off-2"},
	}
	if !reflect.DeepEqual(p.Rules, wantRules) {
		t.Errorf("rules = %+v, want %+v", p.Rules, wantRules)
	}
	wantTimed := []faults.Timed{
		{At: 1, Action: "partition", Target: "east", For: 2},
		{At: 0.8, Action: "crash", Target: "west", For: 2.2},
		{At: 3, Action: "crash", Target: "core"},
	}
	if !reflect.DeepEqual(p.Timed, wantTimed) {
		t.Errorf("timed = %+v, want %+v", p.Timed, wantTimed)
	}
	if p.Empty() {
		t.Error("plan reported empty")
	}
}

// TestPlanStringRoundTrip pins that String renders back into the
// grammar and re-parses to an equivalent plan (node faults sorted by
// time, which String canonicalizes).
func TestPlanStringRoundTrip(t *testing.T) {
	p := mustParse(t, samplePlan)
	q := mustParse(t, p.String())
	if !reflect.DeepEqual(p.Rules, q.Rules) {
		t.Errorf("rules drifted: %+v vs %+v", p.Rules, q.Rules)
	}
	// String sorts node faults by time; compare as multisets via a
	// second render.
	if p2 := q.String(); p2 != p.String() {
		t.Errorf("String not stable:\n%s\nvs\n%s", p.String(), p2)
	}
}

func TestParsePlanErrors(t *testing.T) {
	for _, spec := range []string{
		"drop signal 1.5",            // prob out of range
		"drop tcp 0.5",               // unknown proto
		"wobble any 0.5",             // unknown directive
		"delay signal 0.5",           // missing seconds
		"reorder signal 0.5 -1",      // negative duration
		"at -1 partition east for 2", // negative time
		"at 1 partition east",        // partition without for
		"at 1 explode east",          // unknown action
		"at 1 crash east for 0",      // non-positive duration
		"at 1 crash east maybe",      // trailing garbage
		"drop signal nope",           // bad float
		"delay signal 0.5 1e400",     // non-finite
		"drop signal 0.5 on",         // dangling filter keyword
	} {
		if _, err := ParsePlanString(spec); err == nil {
			t.Errorf("ParsePlan(%q) accepted", spec)
		}
	}
}

func TestEmptyPlan(t *testing.T) {
	var nilPlan *Plan
	if !nilPlan.Empty() || nilPlan.String() != "" {
		t.Error("nil plan not empty")
	}
	p := mustParse(t, "# only comments\n\n")
	if !p.Empty() {
		t.Error("comment-only plan not empty")
	}
}

// TestInjectorDeterministic pins that identical (plan, seed) pairs
// produce identical verdict sequences, and that different seeds
// decorrelate.
func TestInjectorDeterministic(t *testing.T) {
	p := mustParse(t, "drop any 0.3\ndup any 0.2\ndelay any 0.4 0.01\nreorder any 0.25 0.02\n")
	run := func(seed int64) []faults.Verdict {
		in := NewInjector(p, seed)
		out := make([]faults.Verdict, 200)
		for i := range out {
			out[i] = in.Frame("signal", "l1")
		}
		return out
	}
	a, b := run(7), run(7)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed produced different verdicts")
	}
	if reflect.DeepEqual(a, run(8)) {
		t.Fatal("different seeds produced identical verdicts (suspicious)")
	}
	in := NewInjector(p, 7)
	for i := 0; i < 200; i++ {
		in.Frame("maxmin", "l2")
	}
	if in.Drops == 0 || in.Dups == 0 || in.Delays == 0 || in.Reorders == 0 {
		t.Errorf("counters did not all move: %+v", in)
	}
}

// TestInjectorLinkFilter pins that an `on <link>` rule fires only for
// frames crossing the named link.
func TestInjectorLinkFilter(t *testing.T) {
	p := mustParse(t, "drop signal 1 on l-target\n")
	in := NewInjector(p, 1)
	if v := in.Frame("signal", "l-other"); v.Drop {
		t.Error("rule fired on unfiltered link")
	}
	if v := in.Frame("maxmin", "l-target"); v.Drop {
		t.Error("rule fired on wrong protocol")
	}
	if v := in.Frame("signal", "l-target"); !v.Drop {
		t.Error("rule did not fire on its link")
	}
}

// TestInjectorEmptyNoDraws pins the zero-cost contract: a nil or empty
// injector decides frames without consuming randomness, so interleaving
// it with a live one cannot perturb the live one's stream.
func TestInjectorEmptyNoDraws(t *testing.T) {
	var nilInj *Injector
	for i := 0; i < 10; i++ {
		if v := nilInj.Frame("signal", "l"); v != (faults.Verdict{}) {
			t.Fatal("nil injector acted")
		}
	}
	p := mustParse(t, "drop any 0.5\n")
	ref := NewInjector(p, 42)
	mixed := NewInjector(p, 42)
	empty := NewInjector(&Plan{}, 42)
	for i := 0; i < 100; i++ {
		want := ref.Frame("signal", "l")
		empty.Frame("signal", "l") // must not advance anything shared
		if got := mixed.Frame("signal", "l"); got != want {
			t.Fatalf("frame %d: verdict %+v, want %+v", i, got, want)
		}
	}
	if empty.Drops+empty.Dups+empty.Delays+empty.Reorders != 0 {
		t.Error("empty injector counted firings")
	}
}
