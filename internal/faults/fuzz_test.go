package faults

import (
	"strings"
	"testing"
)

// FuzzParsePlan feeds arbitrary text to the plan parser. Invariants: the
// parser never panics, and any plan it accepts survives a String() →
// ParsePlan round trip to the identical rendering (the grammar is
// self-describing).
func FuzzParsePlan(f *testing.F) {
	f.Add(samplePlan)
	f.Add("drop signal 0.1")
	f.Add("dup any 1")
	f.Add("delay maxmin 0.5 0.002")
	f.Add("at 0 crash-signaling")
	f.Add("at 100 link-down bb:r1-r2 for 50")
	f.Add("at 1e3 blackout caf-1 for 2.5")
	f.Add("# only a comment\n\n")
	f.Add("drop signal 2")
	f.Add("at 10 blackout c")
	f.Add("delay any 0.1 -1")
	// internal/netfaults' corpus: valid on the other plane, so here each
	// must be rejected or parse — never panic, never half-apply.
	f.Add("drop any 0.2\ndup signal 0.1\nreorder any 0.25 0.004\ndrop signal 0.5 on sw-east->air-off-2\nat 1 partition east for 2\nat 3 crash core\n")
	f.Add("drop any 0.5\n")
	f.Add("reorder maxmin 0.25 0.004 on core->sw-east\n")
	f.Add("at 1 partition east for 2\nat 0.5 crash west for 1\n")
	f.Add("at 2 crash core\n# comment\n\n")
	f.Add("delay signal 1 0\n")
	f.Fuzz(func(t *testing.T, input string) {
		p, err := ParsePlan(strings.NewReader(input))
		if err != nil {
			return
		}
		rendered := p.String()
		again, err := ParsePlan(strings.NewReader(rendered))
		if err != nil {
			t.Fatalf("accepted plan failed to re-parse: %v\nrendered:\n%s", err, rendered)
		}
		if got := again.String(); got != rendered {
			t.Fatalf("round trip drifted:\n%q\nvs\n%q", got, rendered)
		}
	})
}
