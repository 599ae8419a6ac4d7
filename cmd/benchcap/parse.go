package main

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// result is one parsed benchmark line: the benchmark's name (with the
// trailing -GOMAXPROCS suffix split off into Procs), its iteration
// count, and every reported value. The three standard units get typed
// fields; custom b.ReportMetric units land in Metrics verbatim.
type result struct {
	// Name is the benchmark function name, e.g. "BenchmarkWaterFillSmall".
	Name string `json:"name"`
	// Procs is the GOMAXPROCS suffix (0 when the line carried none).
	Procs int `json:"procs,omitempty"`
	// Iters is the measured iteration count (b.N).
	Iters int64 `json:"iters"`
	// NsPerOp is wall-clock nanoseconds per iteration.
	NsPerOp float64 `json:"ns_op"`
	// BytesPerOp and AllocsPerOp come from -benchmem.
	BytesPerOp  float64 `json:"b_op"`
	AllocsPerOp float64 `json:"allocs_op"`
	// Metrics holds custom b.ReportMetric units, e.g. "events/s".
	Metrics map[string]float64 `json:"metrics,omitempty"`
}

// parsedRun is the structured form of one `go test -bench` invocation's
// output: the benchmark results plus the context header lines.
type parsedRun struct {
	// Pkg is the first "pkg:" header seen, e.g. "armnet/internal/des".
	Pkg string
	// CPU is the "cpu:" header, for judging cross-machine comparability.
	CPU string
	// Results holds one entry per benchmark line, in output order.
	Results []result
}

// Parse reads `go test -bench` output and returns the structured
// results. It fails loudly on the two silent-rot modes a capture
// harness must not paper over: output that contains test or build
// failures (FAIL lines, "[build failed]") and output with no benchmark
// lines at all (a pattern that matched nothing).
func parse(r io.Reader) (parsedRun, error) {
	var p parsedRun
	var failures []string
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64*1024), 1024*1024)
	for sc.Scan() {
		line := sc.Text()
		trimmed := strings.TrimSpace(line)
		switch {
		case strings.HasPrefix(trimmed, "pkg:"):
			if p.Pkg == "" {
				p.Pkg = strings.TrimSpace(strings.TrimPrefix(trimmed, "pkg:"))
			}
		case strings.HasPrefix(trimmed, "cpu:"):
			if p.CPU == "" {
				p.CPU = strings.TrimSpace(strings.TrimPrefix(trimmed, "cpu:"))
			}
		case strings.HasPrefix(trimmed, "--- FAIL"), strings.HasPrefix(trimmed, "FAIL"):
			failures = append(failures, trimmed)
		case strings.HasPrefix(trimmed, "Benchmark"):
			res, ok, err := parseLine(trimmed)
			if err != nil {
				return parsedRun{}, err
			}
			if ok {
				p.Results = append(p.Results, res)
			}
		}
	}
	if err := sc.Err(); err != nil {
		return parsedRun{}, fmt.Errorf("reading bench output: %w", err)
	}
	if len(failures) > 0 {
		return parsedRun{}, fmt.Errorf("bench run failed: %s", strings.Join(failures, "; "))
	}
	if len(p.Results) == 0 {
		return parsedRun{}, fmt.Errorf("no benchmark results in output")
	}
	return p, nil
}

// parseLine parses one "BenchmarkName-8  N  v unit  v unit ..." line.
// Lines that merely start with "Benchmark" but are not result lines
// (e.g. "BenchmarkFoo" alone on the line while the run is in flight)
// report ok=false rather than an error.
func parseLine(line string) (result, bool, error) {
	fields := strings.Fields(line)
	if len(fields) < 4 || len(fields)%2 != 0 {
		return result{}, false, nil
	}
	res := result{Name: fields[0]}
	if i := strings.LastIndex(res.Name, "-"); i > 0 {
		if procs, err := strconv.Atoi(res.Name[i+1:]); err == nil && procs > 0 {
			res.Name, res.Procs = res.Name[:i], procs
		}
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return result{}, false, nil
	}
	res.Iters = iters
	for i := 2; i+1 < len(fields); i += 2 {
		val, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return result{}, false, fmt.Errorf("bad value %q in line %q", fields[i], line)
		}
		switch unit := fields[i+1]; unit {
		case "ns/op":
			res.NsPerOp = val
		case "B/op":
			res.BytesPerOp = val
		case "allocs/op":
			res.AllocsPerOp = val
		default:
			if res.Metrics == nil {
				res.Metrics = map[string]float64{}
			}
			res.Metrics[unit] = val
		}
	}
	return res, true, nil
}

// mergeResults combines duplicate (Name, Procs) results — as produced
// by -count>1 runs — into one result per benchmark: iteration-weighted
// means for all per-op values and summed iteration counts. Results keep
// first-appearance order, and merging already-merged results is a
// no-op, which is what lets a capture be re-parsed and re-merged
// without drift.
func mergeResults(rs []result) []result {
	type key struct {
		name  string
		procs int
	}
	idx := map[key]int{}
	var out []result
	for _, r := range rs {
		k := key{r.Name, r.Procs}
		j, seen := idx[k]
		if !seen {
			idx[k] = len(out)
			// Deep-copy Metrics so merging never aliases the input.
			if r.Metrics != nil {
				m := make(map[string]float64, len(r.Metrics))
				for u, v := range r.Metrics {
					m[u] = v
				}
				r.Metrics = m
			}
			out = append(out, r)
			continue
		}
		a := &out[j]
		wa, wb := float64(a.Iters), float64(r.Iters)
		if wa+wb == 0 {
			continue
		}
		mean := func(x, y float64) float64 { return (x*wa + y*wb) / (wa + wb) }
		a.NsPerOp = mean(a.NsPerOp, r.NsPerOp)
		a.BytesPerOp = mean(a.BytesPerOp, r.BytesPerOp)
		a.AllocsPerOp = mean(a.AllocsPerOp, r.AllocsPerOp)
		for u, v := range r.Metrics {
			if a.Metrics == nil {
				a.Metrics = map[string]float64{}
			}
			if _, ok := a.Metrics[u]; ok {
				a.Metrics[u] = mean(a.Metrics[u], v)
			} else {
				a.Metrics[u] = v
			}
		}
		a.Iters += r.Iters
	}
	return out
}
