package main

import (
	"bytes"
	"os"
	"path/filepath"
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
