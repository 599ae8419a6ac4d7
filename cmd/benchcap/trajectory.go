package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
)

// entry is one trajectory point: the results of one capture plus the
// context needed to judge comparability later (toolchain, CPU, git
// revision, when it was taken).
type entry struct {
	// CapturedAt is an RFC3339 UTC timestamp.
	CapturedAt string `json:"captured_at"`
	// GoVersion is runtime.Version() of the capturing toolchain.
	GoVersion string `json:"go_version,omitempty"`
	// Revision is the git revision the capture ran against, when known.
	Revision string `json:"revision,omitempty"`
	// Note is a free-form label ("baseline", "post 4-ary heap", ...).
	Note string `json:"note,omitempty"`
	// CPU and Pkg come from the bench output header.
	CPU string `json:"cpu,omitempty"`
	Pkg string `json:"pkg,omitempty"`
	// Results holds one merged result per benchmark.
	Results []result `json:"results"`
}

// trajectory is the accumulated benchmark history of one area — the
// content of a BENCH_<area>.json file. Entries are append-only and
// chronological: Entries[0] is the first baseline ever captured,
// Entries[len-1] the most recent.
type trajectory struct {
	Area    string  `json:"area"`
	Entries []entry `json:"entries"`
}

// Last returns the most recent entry, or nil for an empty trajectory.
func (t *trajectory) Last() *entry {
	if len(t.Entries) == 0 {
		return nil
	}
	return &t.Entries[len(t.Entries)-1]
}

// Append adds one capture to the trajectory.
func (t *trajectory) Append(e entry) { t.Entries = append(t.Entries, e) }

// Load reads a trajectory file. A missing file is not an error: it
// yields an empty trajectory for the given area, so the first capture
// bootstraps the file.
func loadTrajectory(path, area string) (*trajectory, error) {
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return &trajectory{Area: area}, nil
	}
	if err != nil {
		return nil, fmt.Errorf("read %s: %w", path, err)
	}
	var t trajectory
	if err := json.Unmarshal(data, &t); err != nil {
		return nil, fmt.Errorf("parse %s: %w", path, err)
	}
	if t.Area == "" {
		t.Area = area
	} else if area != "" && t.Area != area {
		return nil, fmt.Errorf("%s holds area %q, expected %q", path, t.Area, area)
	}
	return &t, nil
}

// Save writes the trajectory atomically (temp file + rename) so an
// interrupted capture never truncates the accumulated history.
func (t *trajectory) Save(path string) error {
	data, err := json.MarshalIndent(t, "", "  ")
	if err != nil {
		return fmt.Errorf("encode %s: %w", path, err)
	}
	data = append(data, '\n')
	tmp, err := os.CreateTemp(filepath.Dir(path), ".bench-*.json")
	if err != nil {
		return fmt.Errorf("temp file: %w", err)
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("write %s: %w", path, err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("close %s: %w", path, err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("rename %s: %w", path, err)
	}
	return nil
}

// delta is one benchmark metric compared across two trajectory entries.
type delta struct {
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
// name and reports a delta per (benchmark, metric) pair, in current
// order: ns/op always, allocs/op whenever either side reports any.
// Benchmarks present on only one side are skipped — a renamed or new
// benchmark has no trajectory to compare against.
func compare(prev, cur []result) []delta {
	byName := make(map[string]result, len(prev))
	for _, r := range prev {
		byName[r.Name] = r
	}
	var out []delta
	for _, c := range cur {
		p, ok := byName[c.Name]
		if !ok {
			continue
		}
		out = append(out, newDelta(c.Name, "ns/op", p.NsPerOp, c.NsPerOp))
		if p.AllocsPerOp != 0 || c.AllocsPerOp != 0 {
			out = append(out, newDelta(c.Name, "allocs/op", p.AllocsPerOp, c.AllocsPerOp))
		}
	}
	return out
}

func newDelta(name, metric string, before, after float64) delta {
	d := delta{Name: name, Metric: metric, Before: before, After: after}
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

// allocsMoved reports whether an allocs/op change is real. go test
// prints allocs/op as a truncated mean, so a benchmark whose mean sits
// near an integer reads one apart from run to run of the same binary
// (1540, then 1541). From 100 allocs/op up only a move of more than one
// counts; below, every move does — so a move between 0 and 1, an
// allocation-free path gaining or losing its pin, always does.
func allocsMoved(before, after float64) bool {
	return before != after && (before < 100 || math.Abs(after-before) > 1)
}

// Report renders deltas as an aligned text table, one line per
// (benchmark, metric). ns/op rows carry no verdict: single-shot timings
// swing by tens of percent between captures on one box, so they are
// informational. An allocs/op row that moved (see allocsMoved) is
// marked, because allocation counts are deterministic up to the
// truncation of their mean. It is the human-readable face of the
// trajectory: benchcap prints it after every capture.
func report(ds []delta) string {
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
		if d.Metric == "allocs/op" && allocsMoved(d.Before, d.After) {
			mark = "  ALLOCS CHANGED"
		}
		fmt.Fprintf(&b, "%-*s  %-9s  %14.6g  %14.6g  %+7.1f%%%s\n",
			nameW, d.Name, d.Metric, d.Before, d.After, d.Change*100, mark)
	}
	return b.String()
}
