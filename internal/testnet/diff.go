package testnet

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"

	"armnet/internal/sortx"
)

// Trace comparison for the live-vs-sim oracle. The timestamp mapping is
// documented here once:
//
//   - Loopback vs sim (the CI gate): both run on the simulator clock, so
//     the controller traces must be BYTE-IDENTICAL — same events, same
//     order, same timestamps. DiffTraces does a strict line diff.
//   - UDP vs loopback: node timestamps come from each process's wall
//     clock, so envelope "t" (and with it any cross-node interleaving)
//     is not comparable; and real scheduling may interleave concurrent
//     protocol sessions differently than the simulator's deterministic
//     order. What must survive the transport swap is the frame CONTENT:
//     after stripping the (seq, t) envelope, each node's sorted line
//     multiset must match. DiffNodeFrames implements that.

// DiffTraces compares two JSONL traces line by line and describes the
// first divergence ("" when identical).
func DiffTraces(a, b []byte) string {
	la, lb := traceLines(a), traceLines(b)
	n := len(la)
	if len(lb) < n {
		n = len(lb)
	}
	for i := 0; i < n; i++ {
		if la[i] != lb[i] {
			return fmt.Sprintf("line %d:\n  a: %s\n  b: %s", i+1, la[i], lb[i])
		}
	}
	if len(la) != len(lb) {
		return fmt.Sprintf("length: a has %d lines, b has %d", len(la), len(lb))
	}
	return ""
}

// normalizeLine strips the per-run envelope (seq, t) from one trace
// line, keeping the event content that must survive a transport swap.
func normalizeLine(line string) string {
	var env struct {
		Type string          `json:"type"`
		Ev   json.RawMessage `json:"ev"`
	}
	if err := json.Unmarshal([]byte(line), &env); err != nil {
		return line
	}
	return fmt.Sprintf(`{"type":%q,"ev":%s}`, env.Type, env.Ev)
}

// DiffNodeFrames compares per-node frame multisets after normalization:
// the relaxed equivalence between a wall-clock run and the deterministic
// loopback reference. It returns one message per disagreeing node.
func DiffNodeFrames(a, b map[string][]byte) []string {
	names := map[string]bool{}
	for n := range a {
		names[n] = true
	}
	for n := range b {
		names[n] = true
	}
	var out []string
	for _, n := range sortx.Keys(names) {
		la, lb := normalizedSorted(a[n]), normalizedSorted(b[n])
		if len(la) != len(lb) {
			out = append(out, fmt.Sprintf("%s: %d frames vs %d", n, len(la), len(lb)))
			continue
		}
		for i := range la {
			if la[i] != lb[i] {
				out = append(out, fmt.Sprintf("%s: frame multiset differs at %q vs %q", n, la[i], lb[i]))
				break
			}
		}
	}
	return out
}

// TraceEvents counts the lines in a JSONL trace.
func TraceEvents(trace []byte) int { return len(traceLines(trace)) }

func traceLines(trace []byte) []string {
	s := strings.TrimRight(string(trace), "\n")
	if s == "" {
		return nil
	}
	return strings.Split(s, "\n")
}

func normalizedSorted(trace []byte) []string {
	lines := traceLines(trace)
	out := make([]string, len(lines))
	for i, l := range lines {
		out[i] = normalizeLine(l)
	}
	sort.Strings(out)
	return out
}
