package main

import (
	"bytes"
	"errors"
	"flag"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestRunLoopback: the default mode's in-process oracle holds — the
// loopback controller trace equals the sim reference and both audits are
// clean.
func TestRunLoopback(t *testing.T) {
	if err := runLoopback(); err != nil {
		t.Fatal(err)
	}
}

// TestRunSoak: a two-epoch soak under the default fault rotation audits
// clean and writes one report line per epoch to -out.
func TestRunSoak(t *testing.T) {
	out := filepath.Join(t.TempDir(), "soak.jsonl")
	if err := runSoak(2, 42, "", out, ""); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if n := bytes.Count(data, []byte("\n")); n != 2 {
		t.Fatalf("soak report has %d lines, want one per epoch (2):\n%s", n, data)
	}
}

// TestParseArgsRefusesWhatTheModeIgnores: a positional argument, an
// unknown mode and a flag the chosen mode never reads are refused with an
// error naming it, where the run once went ahead and ignored them; each
// mode's own flags parse, and -h is help, not an error.
func TestParseArgsRefusesWhatTheModeIgnores(t *testing.T) {
	for _, c := range []struct {
		args []string
		want string // the error's prefix
	}{
		{[]string{"-mode", "loopback", "-seed", "7", "-soak-epochs", "3", "stray"}, `unexpected argument "stray"`},
		{[]string{"stray"}, `unexpected argument "stray"`},
		{[]string{"-mode", "sometimes"}, `unknown mode "sometimes"`},
		{[]string{"-seed", "7"}, "-seed: -mode loopback does not read it"},
		{[]string{"-mode", "node", "-name", "west", "-soak-epochs", "3"}, "-soak-epochs: -mode node does not read it"},
		{[]string{"-mode", "controller", "-plan", "p"}, "-plan: -mode controller does not read it"},
		{[]string{"-mode", "orchestrate", "-out", "o"}, "-out: -mode orchestrate does not read it"},
		{[]string{"-mode", "soak", "-name", "west"}, "-name: -mode soak does not read it"},
		{[]string{"-mode", "controller", "-listen", "127.0.0.1:0"}, "-listen: -mode controller does not read it"},
		{[]string{"-mode", "soak", "-trace", "t"}, "-trace: -mode soak does not read it"},
		{[]string{"-mode", "orchestrate", "-peers", "core=x"}, "-peers: -mode orchestrate does not read it"},
		{[]string{"-mode", "controller", "-dir", "d"}, "-dir: -mode controller does not read it"},
		{[]string{"-mode", "node", "-horizon", "3"}, "-horizon: -mode node does not read it"},
		{[]string{"-mode", "soak", "-horizon", "3"}, "-horizon: -mode soak does not read it"},
		{[]string{"-mode", "loopback", "-telemetry-addr", "127.0.0.1:0"}, "-telemetry-addr: -mode loopback does not read it"},
	} {
		if _, err := parseArgs(c.args, io.Discard); err == nil || !strings.HasPrefix(err.Error(), c.want) {
			t.Errorf("armnode %s: err = %v, want a refusal starting %q", strings.Join(c.args, " "), err, c.want)
		}
	}
	for _, args := range [][]string{
		nil,
		{"-mode", "node", "-name", "west", "-listen", "127.0.0.1:0", "-trace", "w.jsonl", "-telemetry-addr", "127.0.0.1:0"},
		{"-mode", "controller", "-peers", "core=x", "-horizon", "3", "-telemetry-addr", "127.0.0.1:0"},
		{"-mode", "orchestrate", "-dir", "d", "-horizon", "3", "-telemetry-addr", "127.0.0.1:0"},
		{"-mode", "soak", "-soak-epochs", "3", "-seed", "7", "-plan", "p", "-out", "o", "-telemetry-addr", "127.0.0.1:0"},
	} {
		if _, err := parseArgs(args, io.Discard); err != nil {
			t.Errorf("armnode %s: %v", strings.Join(args, " "), err)
		}
	}
	if _, err := parseArgs([]string{"-h"}, io.Discard); !errors.Is(err, flag.ErrHelp) {
		t.Errorf("armnode -h: err = %v, want flag.ErrHelp", err)
	}
}
