package netfaults

import (
	"strings"
	"testing"
)

// FuzzParsePlan asserts parser totality (no panics on arbitrary specs)
// and the String round-trip: any accepted plan must re-render into a
// spec the parser accepts again, yielding a byte-identical second
// render (String is a fixpoint).
func FuzzParsePlan(f *testing.F) {
	f.Add(samplePlan)
	f.Add("drop any 0.5\n")
	f.Add("reorder maxmin 0.25 0.004 on core->sw-east\n")
	f.Add("at 1 partition east for 2\nat 0.5 crash west for 1\n")
	f.Add("at 2 crash core\n# comment\n\n")
	f.Add("delay signal 1 0\n")
	// internal/faults' corpus: valid on the other plane, so here each
	// must be rejected or parse — never panic, never half-apply.
	f.Add("drop signal 0.1\ndelay maxmin 0.05 0.005\nat 100 link-down bb:r1-r2 for 50\nat 300 cell-out off-1\nat 400 crash-zone z1\nat 500 blackout caf-1 for 30\nat 600 crash-signaling\n")
	f.Add("dup any 1")
	f.Add("at 0 crash-signaling")
	f.Add("at 100 link-down bb:r1-r2 for 50")
	f.Add("at 1e3 blackout caf-1 for 2.5")
	f.Add("drop signal 2")
	f.Add("at 10 blackout c")
	f.Add("delay any 0.1 -1")
	f.Fuzz(func(t *testing.T, spec string) {
		p, err := ParsePlan(strings.NewReader(spec))
		if err != nil {
			return
		}
		rendered := p.String()
		q, err := ParsePlan(strings.NewReader(rendered))
		if err != nil {
			t.Fatalf("re-parse of rendered plan failed: %v\nrendered:\n%s", err, rendered)
		}
		if again := q.String(); again != rendered {
			t.Fatalf("String not a fixpoint:\n%q\nvs\n%q", rendered, again)
		}
	})
}
