package sim

import (
	"bytes"
	"context"
	"fmt"
	"strings"
	"testing"

	"armnet/internal/runner"
)

// TestCampusTraceDeterminismAcrossWorkers is the event-stream replication
// regression test: the full JSONL trace of each reservation mode must be
// byte-identical whether the modes run serially or fanned across a worker
// pool. Any divergence means an event was published from a scheduling- or
// map-order-dependent code path.
func TestCampusTraceDeterminismAcrossWorkers(t *testing.T) {
	serial := make([][]byte, len(campusModes))
	for i, mode := range campusModes {
		c := detCampusCfg
		c.Mode = mode
		_, trace, err := RunCampusTrace(c)
		if err != nil {
			t.Fatalf("mode %v: %v", mode, err)
		}
		if len(trace) == 0 {
			t.Fatalf("mode %v: empty trace", mode)
		}
		if !strings.HasPrefix(string(trace), `{"seq":1,`) {
			t.Fatalf("mode %v: trace does not start at seq 1: %.80s", mode, trace)
		}
		serial[i] = trace
	}
	for _, workers := range []int{1, 2, 8} {
		got, st, err := runner.Map(context.Background(), workers, len(campusModes),
			func(_ context.Context, i int) ([]byte, error) {
				c := detCampusCfg
				c.Mode = campusModes[i]
				_, trace, err := RunCampusTrace(c)
				return trace, err
			})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if st.Failed != 0 {
			t.Fatalf("workers=%d: unexpected stats %+v", workers, st)
		}
		for i := range campusModes {
			if !bytes.Equal(got[i], serial[i]) {
				t.Fatalf("workers=%d mode %v: trace diverged from serial (%d vs %d bytes)",
					workers, campusModes[i], len(got[i]), len(serial[i]))
			}
		}
	}
}

// TestCampusTraceDeterminismAcrossRuns repeats the full-size campus
// configuration in one process and requires the same bytes every time.
// The short detCampusCfg never reached the lounge plans whose
// policy-reservation amount was once summed in map order; 24 portables
// over 2400 s do, and a map-order sum shows as a last-ulp flip within a
// handful of runs.
func TestCampusTraceDeterminismAcrossRuns(t *testing.T) {
	cfg := CampusConfig{Seed: 1, Portables: 24, Duration: 2400}
	_, first, err := RunCampusTrace(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for run := 1; run < 9; run++ {
		_, again, err := RunCampusTrace(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(again, first) {
			t.Fatalf("run %d diverged from run 0 (%d vs %d bytes): %s", run, len(again), len(first), firstDiffLine(first, again))
		}
	}
}

// firstDiffLine returns the first line on which two JSONL traces differ.
func firstDiffLine(a, b []byte) string {
	la, lb := bytes.Split(a, []byte("\n")), bytes.Split(b, []byte("\n"))
	for i := 0; i < len(la) && i < len(lb); i++ {
		if !bytes.Equal(la[i], lb[i]) {
			return fmt.Sprintf("line %d\n  %s\n  %s", i+1, la[i], lb[i])
		}
	}
	return "one trace is a prefix of the other"
}

// TestCampusTraceConsistentWithResult checks that the trace and the
// summary come from one stream: replaying the recorded events must
// reproduce the counters behind the returned CampusResult.
func TestCampusTraceConsistentWithResult(t *testing.T) {
	res, trace, err := RunCampusTrace(detCampusCfg)
	if err != nil {
		t.Fatal(err)
	}
	var requested, blocked, attempted int64
	for _, line := range bytes.Split(bytes.TrimSpace(trace), []byte("\n")) {
		switch {
		case bytes.Contains(line, []byte(`"type":"connection-requested"`)):
			requested++
		case bytes.Contains(line, []byte(`"type":"connection-blocked"`)):
			blocked++
		case bytes.Contains(line, []byte(`"type":"handoff-attempt"`)):
			attempted++
		}
	}
	if requested == 0 || attempted == 0 {
		t.Fatalf("trace missing core events: requested=%d attempted=%d", requested, attempted)
	}
	if got := float64(blocked) / float64(requested); got != res.BlockRate {
		t.Fatalf("BlockRate mismatch: trace %v result %v", got, res.BlockRate)
	}
	if res.Handoffs != attempted {
		t.Fatalf("Handoffs mismatch: trace %d result %d", attempted, res.Handoffs)
	}
}
