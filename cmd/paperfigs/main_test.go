package main

import (
	"bytes"
	"flag"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files from current output")

// runGolden executes the named experiments exactly as `paperfigs -exp
// <names> -seed <seed> -horizon <horizon> -parallel <parallel>` would and
// returns the stdout bytes. Worker-pool stats are discarded: they carry
// wall-clock timings and must never be part of the comparable output.
func runGolden(t *testing.T, names []string, seed int64, horizon float64, parallel int) []byte {
	t.Helper()
	var buf bytes.Buffer
	o := opts{seed: seed, horizon: horizon, walkBys: 400, parallel: parallel, out: &buf, statsOut: io.Discard}
	if err := runExperiments(names, o); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestTable2Golden pins `paperfigs -exp table2 -seed 1` to a checked-in
// fixture so experiment refactors cannot silently drift the paper's
// admission table.
func TestTable2Golden(t *testing.T) {
	got := runGolden(t, []string{"table2"}, 1, 200, 1)
	golden := filepath.Join("testdata", "table2.golden")
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
		t.Fatalf("%v (run `go test ./cmd/paperfigs -update` to create it)", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("table2 output drifted from golden file %s\n--- got ---\n%s\n--- want ---\n%s",
			golden, got, want)
	}
}

// TestCampusTraceGolden pins the head of the seed-1 predictive campus
// event trace (the stream `paperfigs -exp campus -trace FILE` writes) to
// a checked-in fixture: any drift in event taxonomy, payload encoding,
// stamping, or publication order of the control plane shows up as a diff
// here. Only the first lines are pinned to keep the fixture reviewable;
// full-trace determinism is covered by internal/sim. -obs-snapshot is set
// too: the one extra run that serves both must leave the trace unchanged.
func TestCampusTraceGolden(t *testing.T) {
	const head = 50
	dir := t.TempDir()
	o := opts{seed: 1, out: io.Discard, statsOut: io.Discard,
		tracePath: filepath.Join(dir, "trace.jsonl"), obsPath: filepath.Join(dir, "snap.prom")}
	if err := campus(o); err != nil {
		t.Fatal(err)
	}
	trace, err := os.ReadFile(o.tracePath)
	if err != nil {
		t.Fatal(err)
	}
	if snap, err := os.ReadFile(o.obsPath); err != nil || len(snap) == 0 {
		t.Fatalf("instrument snapshot missing (%d bytes): %v", len(snap), err)
	}
	lines := bytes.SplitAfter(trace, []byte("\n"))
	if len(lines) < head {
		t.Fatalf("trace too short: %d lines", len(lines))
	}
	got := bytes.Join(lines[:head], nil)
	golden := filepath.Join("testdata", "campustrace.golden")
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
		t.Fatalf("%v (run `go test ./cmd/paperfigs -update` to create it)", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("campus event trace drifted from golden file %s\n--- got ---\n%s\n--- want ---\n%s",
			golden, got, want)
	}
}

// TestTheorem1OutputIdenticalAcrossWorkers is the CLI-level replication
// check: the rows printed for every multi-trial experiment — theorem1,
// fig5, fig6 (at a short -horizon), campus and tth — must be
// byte-identical at any -parallel value.
func TestTheorem1OutputIdenticalAcrossWorkers(t *testing.T) {
	names := []string{"theorem1", "fig5", "fig6", "campus", "tth"}
	base := runGolden(t, names, 1, 0.5, 1)
	for _, workers := range []int{2, 8, 0} {
		if got := runGolden(t, names, 1, 0.5, workers); !bytes.Equal(got, base) {
			t.Fatalf("-parallel %d output differs from -parallel 1:\n--- got ---\n%s\n--- want ---\n%s",
				workers, got, base)
		}
	}
}

// TestResolveExperiments covers the -exp flag parser.
func TestResolveExperiments(t *testing.T) {
	names, err := resolveExperiments("all")
	if err != nil || len(names) != len(experimentOrder) {
		t.Fatalf("all: names=%v err=%v", names, err)
	}
	names, err = resolveExperiments("table2,theorem1")
	if err != nil || len(names) != 2 || names[0] != "table2" || names[1] != "theorem1" {
		t.Fatalf("list: names=%v err=%v", names, err)
	}
	if _, err := resolveExperiments("nope"); err == nil {
		t.Fatal("expected error for unknown experiment")
	}
	for _, name := range experimentOrder {
		if _, ok := runners[name]; !ok {
			t.Fatalf("experimentOrder entry %q has no runner", name)
		}
	}
}

// TestBadFlagsRefused: a negative -walkbys and a -horizon that is not a
// positive, finite number are refused with an error naming the flag —
// no default stands in for them — and -walkbys 0 runs Figure 5 with no
// corridor through-traffic instead of the 400 walk-bys of the default.
func TestBadFlagsRefused(t *testing.T) {
	good := opts{seed: 1, horizon: 200, walkBys: 400}
	if err := good.validate(); err != nil {
		t.Fatalf("default flags refused: %v", err)
	}
	for _, c := range []struct {
		flag string
		o    opts
	}{
		{"-walkbys", opts{horizon: 200, walkBys: -3}},
		{"-horizon", opts{horizon: -5}},
		{"-horizon", opts{horizon: 0}},
		{"-horizon", opts{horizon: math.NaN()}},
		{"-horizon", opts{horizon: math.Inf(1)}},
	} {
		err := c.o.validate()
		if err == nil || !strings.HasPrefix(err.Error(), c.flag+" ") {
			t.Errorf("walkBys=%d horizon=%v: error %v, want one naming %s", c.o.walkBys, c.o.horizon, err, c.flag)
		}
	}
	run := func(walkBys int) []byte {
		var buf bytes.Buffer
		if err := fig5(opts{seed: 1, walkBys: walkBys, parallel: 1, out: &buf, statsOut: io.Discard}); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	if bytes.Equal(run(0), run(400)) {
		t.Fatal("-walkbys 0 printed the -walkbys 400 output")
	}
}
