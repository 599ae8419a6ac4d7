package benchx

import (
	"fmt"
	"strings"
)

// Delta is one benchmark metric compared across two trajectory entries.
type Delta struct {
	// Name is the benchmark, Metric the compared unit ("ns/op" or
	// "allocs/op").
	Name   string
	Metric string
	// Before and After are the previous and current values.
	Before float64
	After  float64
	// Change is the fractional change (After-Before)/Before; +0.25
	// means 25% worse. It is 0 when Before is 0 and After is 0, and
	// +Inf-free: a 0→nonzero move is reported as Change=1.
	Change float64
}

// Compare matches current results against previous ones by benchmark
// name and reports a Delta per (benchmark, metric) pair, in current
// order: ns/op always, allocs/op whenever either side reports any.
// Benchmarks present on only one side are skipped — a renamed or new
// benchmark has no trajectory to compare against.
func Compare(prev, cur []Result) []Delta {
	byName := make(map[string]Result, len(prev))
	for _, r := range prev {
		byName[r.Name] = r
	}
	var out []Delta
	for _, c := range cur {
		p, ok := byName[c.Name]
		if !ok {
			continue
		}
		out = append(out, delta(c.Name, "ns/op", p.NsPerOp, c.NsPerOp))
		if p.AllocsPerOp != 0 || c.AllocsPerOp != 0 {
			out = append(out, delta(c.Name, "allocs/op", p.AllocsPerOp, c.AllocsPerOp))
		}
	}
	return out
}

func delta(name, metric string, before, after float64) Delta {
	d := Delta{Name: name, Metric: metric, Before: before, After: after}
	switch {
	case before == 0 && after == 0:
		// no change
	case before == 0:
		d.Change = 1
	default:
		d.Change = (after - before) / before
	}
	return d
}

// Report renders deltas as an aligned text table, one line per
// (benchmark, metric). ns/op rows carry no verdict: single-shot timings
// swing by tens of percent between captures on one box, so they are
// informational. An allocs/op row that changed at all is marked, because
// allocation counts are deterministic. It is the human-readable face of
// the trajectory: benchcap prints it after every capture.
func Report(ds []Delta) string {
	if len(ds) == 0 {
		return "no comparable benchmarks\n"
	}
	var b strings.Builder
	nameW := len("benchmark")
	for _, d := range ds {
		if n := len(d.Name); n > nameW {
			nameW = n
		}
	}
	fmt.Fprintf(&b, "%-*s  %-9s  %14s  %14s  %8s\n", nameW, "benchmark", "metric", "before", "after", "change")
	for _, d := range ds {
		mark := ""
		if d.Metric == "allocs/op" && d.Before != d.After {
			mark = "  ALLOCS CHANGED"
		}
		fmt.Fprintf(&b, "%-*s  %-9s  %14.6g  %14.6g  %+7.1f%%%s\n",
			nameW, d.Name, d.Metric, d.Before, d.After, d.Change*100, mark)
	}
	return b.String()
}
