// Command benchcap captures the repository's benchmark trajectory: it
// runs the benchmark suite area by area with fixed iteration counts,
// parses the `testing.B` output with internal/benchx, and appends one
// entry per area to the BENCH_<area>.json files at the repository root.
// Re-running appends a new trajectory point — it never overwrites — so
// the files accumulate the performance history PR-over-PR, and every
// capture prints a comparison against the previous entry that flags
// >20% regressions.
//
// Usage:
//
//	benchcap [-root dir] [-areas des,maxmin,...] [-note label]
//	benchcap -smoke        # 1-iteration parse-only health check (CI)
//
// Fixed iteration counts (not fixed durations) keep captures cheap and
// make iters a meaningful column; wall-clock comparability across
// machines is judged by the recorded cpu/go_version context fields.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"armnet/internal/benchx"
)

// area is one captured benchmark family: a package, a -bench pattern,
// and the fixed iteration count it runs with.
type area struct {
	Name      string // BENCH_<Name>.json
	Pkg       string // go test package path(s), space-separated, relative to -root
	Pattern   string // -bench regexp
	Benchtime string // fixed -benchtime, always an Nx count
}

// areas is the closed capture set: micro-areas, one per layer, plus the
// arena roster. The whole-world number is bench/'s campus-walk
// portable_secs_per_s (BENCHMARK.json), not an area here.
var areas = []area{
	{Name: "des", Pkg: "./internal/des", Pattern: ".", Benchtime: "50000x"},
	{Name: "admission", Pkg: "./internal/admission", Pattern: ".", Benchtime: "2000x"},
	{Name: "maxmin", Pkg: "./internal/maxmin", Pattern: ".", Benchtime: "500x"},
	{Name: "eventbus", Pkg: "./internal/eventbus", Pattern: ".", Benchtime: "100000x"},
	{Name: "obs", Pkg: "./internal/obs ./internal/obs/live", Pattern: ".", Benchtime: "1000x"},
	{Name: "wire", Pkg: "./internal/wire ./internal/testnet", Pattern: ".", Benchtime: "1000x"},
	{Name: "arena", Pkg: ".", Pattern: "ArenaHeadToHead", Benchtime: "1x"},
}

func main() {
	var (
		root         = flag.String("root", ".", "repository root: where `go test` runs and BENCH files live")
		areaList     = flag.String("areas", "", "comma-separated areas to capture (default: all)")
		out          = flag.String("out", "", "directory for BENCH_<area>.json files (default: -root)")
		note         = flag.String("note", "", "free-form label recorded on each appended entry")
		benchtime    = flag.String("benchtime", "", "override every area's fixed -benchtime (e.g. 1x)")
		threshold    = flag.Float64("threshold", benchx.DefaultThreshold, "fractional change flagged as regression/improvement")
		smoke        = flag.Bool("smoke", false, "health check: run 1 iteration per benchmark, parse, write nothing")
		failOnRegres = flag.Bool("fail-on-regress", false, "exit non-zero when any benchmark regressed beyond -threshold")
	)
	flag.Parse()

	selected, err := selectAreas(*areaList)
	if err != nil {
		fatal(err)
	}
	outDir := *out
	if outDir == "" {
		outDir = *root
	}
	if *smoke {
		tmp, err := os.MkdirTemp("", "benchcap-smoke-")
		if err != nil {
			fatal(err)
		}
		defer os.RemoveAll(tmp)
		outDir = tmp
		*benchtime = "1x"
		*note = "smoke"
	}

	rev := gitRevision(*root)
	regressed := false
	for _, a := range selected {
		bt := a.Benchtime
		if *benchtime != "" {
			bt = *benchtime
		}
		fmt.Printf("== area %s: go test -bench %q -benchtime %s %s\n", a.Name, a.Pattern, bt, a.Pkg)
		parsed, err := runArea(*root, a, bt)
		if err != nil {
			fatal(err)
		}
		entry := benchx.Entry{
			CapturedAt: time.Now().UTC().Format(time.RFC3339),
			GoVersion:  runtime.Version(),
			Revision:   rev,
			Note:       *note,
			CPU:        parsed.CPU,
			Pkg:        parsed.Pkg,
			Results:    benchx.MergeResults(parsed.Results),
		}
		path := filepath.Join(outDir, "BENCH_"+a.Name+".json")
		traj, err := benchx.Load(path, a.Name)
		if err != nil {
			fatal(err)
		}
		if last := traj.Last(); last != nil && !*smoke {
			deltas := benchx.Compare(last.Results, entry.Results, *threshold)
			fmt.Printf("-- vs previous entry (%s%s):\n%s", last.CapturedAt, noteSuffix(last.Note), benchx.Report(deltas))
			if len(benchx.Regressions(deltas)) > 0 {
				regressed = true
			}
		}
		traj.Append(entry)
		if err := traj.Save(path); err != nil {
			fatal(err)
		}
		fmt.Printf("-- %s: %d benchmarks, entry %d appended to %s\n",
			a.Name, len(entry.Results), len(traj.Entries), path)
	}
	if *smoke {
		fmt.Printf("smoke ok: %d areas captured and parsed\n", len(selected))
	}
	if regressed && *failOnRegres {
		fatal(fmt.Errorf("benchmark regression beyond %.0f%% threshold", *threshold*100))
	}
}

// runArea executes one area's fixed-iteration bench run and parses it.
// The raw output is echoed on failure so a broken benchmark is
// diagnosable from the capture log alone.
func runArea(root string, a area, benchtime string) (benchx.Parsed, error) {
	cmd := exec.Command("go", append([]string{"test", "-run", "^$", "-bench", a.Pattern,
		"-benchmem", "-benchtime", benchtime}, strings.Fields(a.Pkg)...)...)
	cmd.Dir = root
	var buf bytes.Buffer
	cmd.Stdout = &buf
	cmd.Stderr = &buf
	runErr := cmd.Run()
	parsed, parseErr := benchx.Parse(bytes.NewReader(buf.Bytes()))
	if parseErr != nil {
		if runErr != nil {
			return benchx.Parsed{}, fmt.Errorf("area %s: %v\n%s", a.Name, runErr, buf.String())
		}
		return benchx.Parsed{}, fmt.Errorf("area %s: %v\n%s", a.Name, parseErr, buf.String())
	}
	if runErr != nil {
		return benchx.Parsed{}, fmt.Errorf("area %s: go test: %v\n%s", a.Name, runErr, buf.String())
	}
	return parsed, nil
}

func selectAreas(list string) ([]area, error) {
	if list == "" {
		return areas, nil
	}
	byName := map[string]area{}
	for _, a := range areas {
		byName[a.Name] = a
	}
	var out []area
	for _, name := range strings.Split(list, ",") {
		name = strings.TrimSpace(name)
		a, ok := byName[name]
		if !ok {
			return nil, fmt.Errorf("unknown area %q (have: %s)", name, strings.Join(areaNames(), ", "))
		}
		out = append(out, a)
	}
	return out, nil
}

func areaNames() []string {
	out := make([]string, len(areas))
	for i, a := range areas {
		out[i] = a.Name
	}
	return out
}

// gitRevision records the short commit hash for the entry's context
// line; a repo without git (or a dirty tree) is not an error.
func gitRevision(root string) string {
	cmd := exec.Command("git", "rev-parse", "--short", "HEAD")
	cmd.Dir = root
	out, err := cmd.Output()
	if err != nil {
		return ""
	}
	rev := strings.TrimSpace(string(out))
	status := exec.Command("git", "status", "--porcelain")
	status.Dir = root
	if s, err := status.Output(); err == nil && len(bytes.TrimSpace(s)) > 0 {
		rev += "+dirty"
	}
	return rev
}

func noteSuffix(note string) string {
	if note == "" {
		return ""
	}
	return ", " + note
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchcap:", err)
	os.Exit(1)
}
