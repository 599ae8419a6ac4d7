package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/all.golden from current output")

// stdout runs the named experiments in process exactly as main would and
// returns what they print to stdout. Worker-pool stats are discarded:
// they carry wall-clock timings and must never be part of the comparable
// output.
func stdout(t *testing.T, names []string, o opts) []byte {
	t.Helper()
	var buf bytes.Buffer
	o.out, o.statsOut = &buf, io.Discard
	if err := runExperiments(names, o); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// parse is parseArgs for a command line the test knows to be valid.
func parse(t *testing.T, args ...string) ([]string, opts) {
	t.Helper()
	names, o, err := parseArgs(args, io.Discard)
	if err != nil {
		t.Fatalf("paperfigs %s: %v", strings.Join(args, " "), err)
	}
	return names, o
}

// TestAllGolden pins the stdout of `paperfigs -exp all` at the default
// flags (seed 1, horizon 200, walkbys 400) to testdata/all.golden: every
// table and figure the paper's evaluation reports, and the extension
// experiments. It runs at -parallel 0; that the output does not depend
// on the worker count is TestTheorem1OutputIdenticalAcrossWorkers'
// claim. Regenerate on purpose with `go test ./cmd/paperfigs -update`.
func TestAllGolden(t *testing.T) {
	names, o := parse(t, "-exp", "all", "-parallel", "0")
	got := stdout(t, names, o)
	golden := filepath.Join("testdata", "all.golden")
	if *update {
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run `go test ./cmd/paperfigs -update` to create it)", err)
	}
	if bytes.Equal(got, want) {
		return
	}
	g, w := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
	for i := range max(len(g), len(w)) {
		if i >= len(g) || i >= len(w) || g[i] != w[i] {
			t.Fatalf("-exp all drifted from %s at line %d:\n got: %q\nwant: %q", golden, i+1, at(g, i), at(w, i))
		}
	}
}

// at returns lines[i], or a marker past the end.
func at(lines []string, i int) string {
	if i < len(lines) {
		return lines[i]
	}
	return "<end of output>"
}

// TestDocumentedOutputsMatch holds EXPERIMENTS.md's printed output to
// the program: each fenced block that directly follows a
// `go run ./cmd/paperfigs …` span (on one line, with no heading or other
// block between them) must be a contiguous run of that command's stdout
// lines. Runs of whitespace are normalised; numbers get no tolerance. A
// command at the default flags is read from its sections of
// testdata/all.golden, which TestAllGolden holds to the program; any
// other command runs in process.
func TestDocumentedOutputsMatch(t *testing.T) {
	const doc = "EXPERIMENTS.md"
	text, err := os.ReadFile(filepath.Join("..", "..", doc))
	if err != nil {
		t.Fatal(err)
	}
	golden, err := os.ReadFile(filepath.Join("testdata", "all.golden"))
	if err != nil {
		t.Fatal(err)
	}
	// all.golden is runExperiments' output: one section per experiment,
	// from its "==== name ====" line up to the next one.
	sections := map[string]string{}
	for _, sec := range regexp.MustCompile(`(?m)^==== `).Split(string(golden), -1)[1:] {
		name, _, _ := strings.Cut(sec, " ")
		sections[name] = "==== " + sec
	}
	_, defaults := parse(t)
	output := func(args []string) ([]string, error) {
		names, o, err := parseArgs(args, io.Discard)
		if err != nil {
			return nil, err
		}
		var out string
		o.parallel = defaults.parallel // the worker count changes no output
		if o == defaults {
			for _, name := range names {
				out += sections[name]
			}
		} else {
			out = string(stdout(t, names, o))
		}
		return strings.Split(out, "\n"), nil
	}
	norm := func(line string) string { return strings.Join(strings.Fields(line), " ") }

	command := regexp.MustCompile("`go run \\./cmd/paperfigs(?: [^`\n]*)?`")
	lines := strings.Split(string(text), "\n")
	cmd := "" // the last paperfigs span since a heading or a block
	checked := 0
	for i := 0; i < len(lines); i++ {
		if strings.HasPrefix(lines[i], "#") {
			cmd = ""
			continue
		}
		if !strings.HasPrefix(lines[i], "```") {
			if m := command.FindAllString(lines[i], -1); m != nil {
				cmd = m[len(m)-1]
			}
			continue
		}
		start := i + 1
		for i++; i < len(lines) && !strings.HasPrefix(lines[i], "```"); i++ {
		}
		block, span := lines[start:i], cmd
		if cmd = ""; span == "" {
			continue
		}
		checked++
		if len(block) == 0 {
			t.Errorf("%s:%d: the block after %s is empty", doc, start+1, span)
			continue
		}
		out, err := output(strings.Fields(strings.Trim(strings.TrimPrefix(span, "`go run ./cmd/paperfigs"), "`")))
		if err != nil {
			t.Errorf("%s:%d: %s: %v", doc, start, span, err)
			continue
		}
		// The run of out that matches the most leading lines of block.
		best, n := 0, 0
		for s := range out {
			k := 0
			for k < len(block) && s+k < len(out) && norm(block[k]) == norm(out[s+k]) {
				k++
			}
			if k > n {
				best, n = s, k
			}
		}
		switch {
		case n == len(block):
		case n == 0:
			t.Errorf("%s:%d reads %q, which %s never prints", doc, start+1, block[0], span)
		default:
			t.Errorf("%s:%d reads %q; after the %d lines above it, %s prints %q", doc, start+1+n, block[n], n, span, at(out, best+n))
		}
	}
	if checked == 0 {
		t.Fatalf("%s: no output block follows a `go run ./cmd/paperfigs …` span", doc)
	}
	t.Logf("%s: %d output blocks checked", doc, checked)
}

// TestTheorem1OutputIdenticalAcrossWorkers is the CLI-level replication
// check: the rows printed for every multi-trial experiment — theorem1,
// fig5, fig6 (at a short -horizon), campus and tth — must be
// byte-identical at any -parallel value.
func TestTheorem1OutputIdenticalAcrossWorkers(t *testing.T) {
	names, o := parse(t, "-exp", "theorem1,fig5,fig6,campus,tth", "-horizon", "0.5")
	base := stdout(t, names, o)
	for _, o.parallel = range []int{2, 8, 0} {
		if got := stdout(t, names, o); !bytes.Equal(got, base) {
			t.Fatalf("-parallel %d output differs from -parallel 1:\n--- got ---\n%s\n--- want ---\n%s",
				o.parallel, got, base)
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

// TestBadFlagsRefused: a negative -walkbys or -parallel and a -horizon
// that is not a positive, finite number are refused with an error naming
// the flag — no default stands in for them (a negative -parallel once ran
// at GOMAXPROCS) — and -walkbys 0 runs Figure 5 with no corridor
// through-traffic instead of the 400 walk-bys of the default.
func TestBadFlagsRefused(t *testing.T) {
	for _, c := range []struct{ flag, arg string }{
		{"-walkbys", "-walkbys=-3"},
		{"-horizon", "-horizon=-5"},
		{"-horizon", "-horizon=0"},
		{"-horizon", "-horizon=NaN"},
		{"-horizon", "-horizon=Inf"},
		{"-parallel", "-parallel=-4"},
	} {
		_, _, err := parseArgs([]string{c.arg}, io.Discard)
		if err == nil || !strings.HasPrefix(err.Error(), c.flag+" ") {
			t.Errorf("paperfigs %s: error %v, want one naming %s", c.arg, err, c.flag)
		}
	}
	run := func(walkBys int) []byte {
		names, o := parse(t, "-exp", "fig5", fmt.Sprint("-walkbys=", walkBys))
		return stdout(t, names, o)
	}
	if bytes.Equal(run(0), run(400)) {
		t.Fatal("-walkbys 0 printed the -walkbys 400 output")
	}
}
