package main

import (
	"sync"

	"armnet/internal/telemetry"
	"armnet/internal/testnet"
)

// nodeTelemetry adapts one armnode mode's live recorders to the shared
// telemetry server (-telemetry-addr). Every mode serves the same four
// endpoints; what backs them differs by role:
//
//   - node: the agent's own receive-side recorder (frames/bytes rx,
//     malformed, oversized, restarts) — no controller, so /spans is empty
//   - controller / orchestrate: the controller recorder — tx counters,
//     RTT histograms, and the cross-node wire spans
//   - soak: the always-armed soak recorder, scrapeable mid-run, with
//     /healthz counting finished epochs
//
// The recorders are mutex-guarded internally, so the scrape path needs
// no coordination with the run beyond this read-only adapter.
type nodeTelemetry struct {
	mu          sync.Mutex
	mode        string
	ctl         *testnet.WireRecorder
	recs        []*testnet.NodeRecorder
	done, total int
	srv         *telemetry.Server
}

// newNodeTelemetry binds addr and starts serving immediately. total is
// the /healthz work unit count (epochs for soak, 1 for one-shot modes).
func newNodeTelemetry(addr, mode string, total int, ctl *testnet.WireRecorder, recs ...*testnet.NodeRecorder) (*nodeTelemetry, error) {
	t := &nodeTelemetry{mode: mode, ctl: ctl, recs: recs, total: total}
	srv, err := telemetry.Serve(addr, t.options())
	if err != nil {
		return nil, err
	}
	t.srv = srv
	return t, nil
}

// options wires the recorders into the shared endpoint; split out from
// newNodeTelemetry so tests can mount the handlers on httptest without
// binding a real port.
func (t *nodeTelemetry) options() telemetry.Options {
	return telemetry.Options{
		Metrics: func() ([]byte, error) {
			snap, err := testnet.ClusterSnapshot(t.ctl, t.recs)
			if err != nil || snap == nil {
				return nil, err
			}
			return snap.Prometheus(), nil
		},
		Health: func() any {
			t.mu.Lock()
			defer t.mu.Unlock()
			return map[string]any{
				"mode": t.mode, "done": t.done, "total": t.total,
				"complete": t.done >= t.total,
			}
		},
		Spans: func() []byte { return t.ctl.SpansJSONL() },
	}
}

// bump marks work units finished; soak wires it per epoch report line,
// one-shot modes call finish once.
func (t *nodeTelemetry) bump(n int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.done += n
}

// finish marks the run complete on /healthz.
func (t *nodeTelemetry) finish() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.done = t.total
}

// close stops the server.
func (t *nodeTelemetry) close() { t.srv.Close() }

// epochCounter is the io.Writer runSoak hands to SoakConfig.Out when
// telemetry is armed: every epoch report arrives as one JSONL line, so
// counting newlines drives the /healthz progress counter. The bytes
// themselves are discarded — the caller still gets the full stream from
// the soak result's ReportJSONL.
type epochCounter struct{ t *nodeTelemetry }

func (c epochCounter) Write(p []byte) (int, error) {
	lines := 0
	for _, b := range p {
		if b == '\n' {
			lines++
		}
	}
	c.t.bump(lines)
	return len(p), nil
}
