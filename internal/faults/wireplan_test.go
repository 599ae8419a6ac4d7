package faults

import (
	"reflect"
	"strings"
	"testing"
)

// The wire plane's grammar and per-frame rule walk: plans parse with
// ParseWirePlan and frames are decided by a Walker, as
// internal/testnet's chaos layer decides them.

const sampleWirePlan = `
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

func mustParseWire(t *testing.T, spec string) *Plan {
	t.Helper()
	p, err := ParseWirePlan(strings.NewReader(spec))
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return p
}

func TestParseWirePlan(t *testing.T) {
	p := mustParseWire(t, sampleWirePlan)
	// ruleFields has the underlying type of a parsed rule.
	type ruleFields struct {
		Proto, Action string
		Prob, Delay   float64
		Link          string
	}
	rules := make([]ruleFields, len(p.Rules))
	for i, r := range p.Rules {
		rules[i] = ruleFields(r)
	}
	wantRules := []ruleFields{
		{Proto: "any", Action: "drop", Prob: 0.2},
		{Proto: "signal", Action: "dup", Prob: 0.1},
		{Proto: "maxmin", Action: "delay", Prob: 0.3, Delay: 0.002},
		{Proto: "any", Action: "reorder", Prob: 0.25, Delay: 0.004},
		{Proto: "signal", Action: "drop", Prob: 0.5, Link: "sw-east->air-off-2"},
	}
	if !reflect.DeepEqual(rules, wantRules) {
		t.Errorf("rules = %+v, want %+v", rules, wantRules)
	}
	wantTimed := []Timed{
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

// TestWirePlanStringRoundTrip pins that String renders back into the
// grammar and re-parses to an equivalent plan (node faults sorted by
// time, which String canonicalizes).
func TestWirePlanStringRoundTrip(t *testing.T) {
	p := mustParseWire(t, sampleWirePlan)
	q := mustParseWire(t, p.String())
	if !reflect.DeepEqual(p.Rules, q.Rules) {
		t.Errorf("rules drifted: %+v vs %+v", p.Rules, q.Rules)
	}
	// String sorts node faults by time; compare as multisets via a
	// second render.
	if p2 := q.String(); p2 != p.String() {
		t.Errorf("String not stable:\n%s\nvs\n%s", p.String(), p2)
	}
}

func TestParseWirePlanErrors(t *testing.T) {
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
		if _, err := ParseWirePlan(strings.NewReader(spec)); err == nil {
			t.Errorf("ParseWirePlan(%q) accepted", spec)
		}
	}
}

func TestEmptyWirePlan(t *testing.T) {
	var nilPlan *Plan
	if !nilPlan.Empty() || nilPlan.String() != "" {
		t.Error("nil plan not empty")
	}
	p := mustParseWire(t, "# only comments\n\n")
	if !p.Empty() {
		t.Error("comment-only plan not empty")
	}
}

// TestWalkerDeterministic pins that identical (plan, seed) pairs
// produce identical verdict sequences, and that different seeds
// decorrelate.
func TestWalkerDeterministic(t *testing.T) {
	p := mustParseWire(t, "drop any 0.3\ndup any 0.2\ndelay any 0.4 0.01\nreorder any 0.25 0.02\n")
	run := func(seed int64) []any {
		in := NewWalker(p, seed)
		out := make([]any, 200)
		for i := range out {
			out[i] = in.Walk("signal", "l1", nil)
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
	in := NewWalker(p, 7)
	for i := 0; i < 200; i++ {
		in.Walk("maxmin", "l2", nil)
	}
	if in.Drops == 0 || in.Dups == 0 || in.Delays == 0 || in.Reorders == 0 {
		t.Errorf("counters did not all move: %+v", in)
	}
}

// TestWalkerLinkFilter pins that an `on <link>` rule fires only for
// frames crossing the named link.
func TestWalkerLinkFilter(t *testing.T) {
	p := mustParseWire(t, "drop signal 1 on l-target\n")
	in := NewWalker(p, 1)
	if v := in.Walk("signal", "l-other", nil); v.Drop {
		t.Error("rule fired on unfiltered link")
	}
	if v := in.Walk("maxmin", "l-target", nil); v.Drop {
		t.Error("rule fired on wrong protocol")
	}
	if v := in.Walk("signal", "l-target", nil); !v.Drop {
		t.Error("rule did not fire on its link")
	}
}

// TestWalkerEmptyNoDraws pins the zero-cost contract: a walker over a
// nil or empty plan decides frames without consuming randomness, so
// interleaving it with a live one cannot perturb the live one's stream.
func TestWalkerEmptyNoDraws(t *testing.T) {
	nilPlan := NewWalker(nil, 42)
	for i := 0; i < 10; i++ {
		if v := nilPlan.Walk("signal", "l", nil); !reflect.ValueOf(v).IsZero() {
			t.Fatal("nil plan acted")
		}
	}
	p := mustParseWire(t, "drop any 0.5\n")
	ref := NewWalker(p, 42)
	mixed := NewWalker(p, 42)
	empty := NewWalker(&Plan{}, 42)
	for i := 0; i < 100; i++ {
		want := ref.Walk("signal", "l", nil)
		empty.Walk("signal", "l", nil) // must not advance anything shared
		if got := mixed.Walk("signal", "l", nil); got != want {
			t.Fatalf("frame %d: verdict %+v, want %+v", i, got, want)
		}
	}
	if empty.Drops+empty.Dups+empty.Delays+empty.Reorders != 0 {
		t.Error("empty injector counted firings")
	}
}
