package main

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"armnet/internal/clock"
	"armnet/internal/telemetry"
	"armnet/internal/testnet"
	"armnet/internal/wire"
)

func telemetryGet(t *testing.T, h http.Handler, path string) (int, string) {
	t.Helper()
	req := httptest.NewRequest("GET", path, nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	res := rec.Result()
	body, err := io.ReadAll(res.Body)
	if err != nil {
		t.Fatal(err)
	}
	return res.StatusCode, string(body)
}

// receive hands one encoded frame to a real node armed with rec, so
// the recorder counts it the way a serving agent would.
func receive(t *testing.T, rec *testnet.NodeRecorder, m wire.Message) {
	t.Helper()
	n := testnet.NewNode("agent", clock.NewWall())
	n.SetObs(rec)
	frame, err := wire.Encode(1, m)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := n.HandleFrame(frame); err != nil {
		t.Fatal(err)
	}
}

// TestArmnodeTelemetryEndpoints mounts the armnode adapter on the
// shared handler without binding a port: a two-epoch soak feeds the
// controller recorder and, through the epochCounter writer, /healthz's
// epoch progress, as armnode's soak mode wires them; a node recorder
// fed by a real node joins the /metrics cluster merge; /spans tails the
// wire spans.
func TestArmnodeTelemetryEndpoints(t *testing.T) {
	ctl := testnet.NewWireRecorder()
	rec := testnet.NewNodeRecorder("west")
	nt := &nodeTelemetry{mode: "soak", ctl: ctl, recs: []*testnet.NodeRecorder{rec}, total: 3}
	h := telemetry.NewHandler(nt.options())

	// Before any traffic, /metrics already answers — the RTT histogram
	// skeletons are registered at construction — but no counter series
	// exists yet.
	if code, body := telemetryGet(t, h, "/metrics"); code != 200 || strings.Contains(body, "_total") {
		t.Fatalf("empty metrics: %d %q", code, body)
	}
	code, body := telemetryGet(t, h, "/healthz")
	if code != 200 || !strings.Contains(body, `"mode":"soak"`) || !strings.Contains(body, `"complete":false`) {
		t.Fatalf("healthz: %d %q", code, body)
	}

	// Feed both sides of the wire: the soak's controller sends, one
	// agent's receive.
	res, err := testnet.RunSoak(testnet.SoakConfig{Epochs: 2, Seed: 1, Obs: ctl, Out: epochCounter{nt}})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Violations) > 0 {
		t.Fatalf("soak violations: %v", res.Violations)
	}
	receive(t, rec, wire.Advertise{Conn: "conn-1"})
	if code, body = telemetryGet(t, h, "/metrics"); code != 200 ||
		!strings.Contains(body, `armnet_wire_frames_tx_total{kind="advertise",node="west"} `) ||
		!strings.Contains(body, `armnet_wire_frames_rx_total{kind="advertise",node="west"} 1`) {
		t.Fatalf("cluster metrics missing tx/rx series: %d %q", code, body)
	}
	if code, body = telemetryGet(t, h, "/spans?n=5"); code != 200 ||
		strings.Count(body, "\n") != 5 || !strings.Contains(body, `"wire-`) {
		t.Fatalf("span tail: %d %q", code, body)
	}
	if code, _ = telemetryGet(t, h, "/spans?n=oops"); code != 400 {
		t.Fatalf("bad n: %d", code)
	}
	if code, _ = telemetryGet(t, h, "/no-such"); code != 404 {
		t.Fatalf("unknown path: %d", code)
	}

	// The two epoch-report lines bumped /healthz; finish completes it.
	if _, body = telemetryGet(t, h, "/healthz"); !strings.Contains(body, `"done":2`) || !strings.Contains(body, `"complete":false`) {
		t.Fatalf("epoch progress: %q", body)
	}
	nt.finish()
	if _, body = telemetryGet(t, h, "/healthz"); !strings.Contains(body, `"complete":true`) {
		t.Fatalf("finish: %q", body)
	}
}

// TestArmnodeTelemetryNodeMode covers the controller-less shape node
// mode runs: a lone NodeRecorder, nil *testnet.WireRecorder — /spans
// must serve empty, not panic.
func TestArmnodeTelemetryNodeMode(t *testing.T) {
	rec := testnet.NewNodeRecorder("east")
	nt := &nodeTelemetry{mode: "node", ctl: nil, recs: []*testnet.NodeRecorder{rec}, total: 1}
	h := telemetry.NewHandler(nt.options())

	receive(t, rec, wire.Hello{Node: "east"})
	code, body := telemetryGet(t, h, "/metrics")
	if code != 200 || !strings.Contains(body, `armnet_wire_frames_rx_total{kind="hello",node="east"} 1`) {
		t.Fatalf("node metrics: %d %q", code, body)
	}
	if code, body = telemetryGet(t, h, "/spans"); code != 200 || body != "" {
		t.Fatalf("nil-controller spans: %d %q", code, body)
	}
}
