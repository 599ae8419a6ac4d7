// Command bench is the repository's benchmark: four workloads, two per
// plane, each reporting the end-to-end metrics from timed passes with
// tracing off (--trace 0) or the per-layer metrics from a traced pass
// and direct probes of each layer's public functions (--trace 1).
// README.md is the glossary; BENCHMARK.json at the repository root is
// the contract a driver runs it under.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
)

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	// One driver goroutine; the second processor serves the garbage
	// collector and, on live-udp-paced, the three node goroutines.
	runtime.GOMAXPROCS(2)
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run (see -list); empty runs all four, timed then traced")
	seed := fs.Int64("seed", 0, "offset added to every workload's default seed set")
	seconds := fs.Float64("seconds", 20, "how long one run measures")
	trace := fs.Int("trace", 0, "0: timed passes, end-to-end metrics; 1: traced pass and probes, per-layer metrics")
	smoke := fs.Bool("smoke", false, "one short pass per workload with every correctness check on; timings are not meaningful")
	list := fs.Bool("list", false, "print every metric by name with its unit, and the workloads, then exit")
	spans := fs.String("spans", "", "with --trace 1, write the recorded spans to this file as JSONL at exit")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *list {
		printGlossary(stdout)
		fmt.Fprintln(stdout, "workloads:")
		for _, w := range workloads {
			fmt.Fprintf(stdout, "  %-20s %s\n", w.name, w.why)
		}
		return nil
	}
	if *trace != 0 && *trace != 1 {
		return fmt.Errorf("--trace must be 0 or 1, got %d", *trace)
	}
	if *seconds < 1 {
		return fmt.Errorf("--seconds must be at least 1, got %g", *seconds)
	}
	printEnvironment(stdout, *seed)

	if *name == "" {
		// Every workload, timed then traced: the one command that prints
		// every metric by name with its unit.
		for _, w := range workloads {
			for _, traced := range []bool{false, true} {
				cfg := runConfig{seed: *seed, seconds: *seconds, trace: traced, smoke: *smoke, log: stdout}
				if _, err := runOne(w, cfg, "", stdout); err != nil {
					return err
				}
			}
		}
		return nil
	}
	for _, w := range workloads {
		if w.name != *name {
			continue
		}
		cfg := runConfig{seed: *seed, seconds: *seconds, trace: *trace == 1, smoke: *smoke, log: stdout}
		res, err := runOne(w, cfg, *spans, stdout)
		if err != nil {
			return err
		}
		line, err := json.Marshal(res)
		if err != nil {
			return err
		}
		_, err = fmt.Fprintf(stdout, "%s\n", line)
		return err
	}
	return fmt.Errorf("unknown workload %q (see -list)", *name)
}

// runOne runs one workload once, prints its metrics and returns the
// contract's result object. Any failed correctness check is an error.
func runOne(w workload, cfg runConfig, spanPath string, stdout io.Writer) (*result, error) {
	fmt.Fprintf(stdout, "\nwhy %s: %s\n", w.name, w.why)
	rep, err := w.run(cfg)
	if err != nil {
		return nil, err
	}
	defs := endToEnd
	if cfg.trace {
		defs = perLayer
	}
	metrics, err := collect(defs, rep.values)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	printMetrics(stdout, defs, rep.values)
	if spanPath != "" && cfg.trace {
		if err := writeSpans(spanPath, rep.spans); err != nil {
			return nil, err
		}
		fmt.Fprintf(stdout, "  %d spans written to %s\n", len(rep.spans), spanPath)
	}
	return &result{Correct: true, Attempted: rep.attempted, Failed: rep.failed, Metrics: metrics}, nil
}

// printEnvironment records where and on what the numbers were taken.
func printEnvironment(w io.Writer, seed int64) {
	fmt.Fprintf(w, "go %s %s/%s, GOMAXPROCS %d, %d cpus, cpu %q, revision %s, seed offset %d\n",
		runtime.Version(), runtime.GOOS, runtime.GOARCH, runtime.GOMAXPROCS(0), runtime.NumCPU(),
		cpuModel(), gitRevision(), seed)
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// gitRevision is the commit the toolchain stamped into the binary, or
// "unknown" when it was built outside a git repository — where the
// driver runs the benchmark.
func gitRevision() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", ""
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value[:min(len(s.Value), 12)]
		case "vcs.modified":
			if s.Value == "true" {
				dirty = "+dirty"
			}
		}
	}
	return rev + dirty
}
