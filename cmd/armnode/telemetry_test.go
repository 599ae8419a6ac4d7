package main

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"armnet/internal/obs/live"
	"armnet/internal/telemetry"
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

// TestArmnodeTelemetryEndpoints mounts the armnode adapter on the
// shared handler without binding a port: live controller and node
// recorders feed /metrics as one cluster merge, /healthz tracks epoch
// progress through the epochCounter writer, /spans tails the wire
// spans.
func TestArmnodeTelemetryEndpoints(t *testing.T) {
	ctl := live.NewController(func() float64 { return 1.5 })
	rec := live.NewNodeRecorder("west")
	nt := &nodeTelemetry{mode: "soak", ctl: ctl, recs: []*live.NodeRecorder{rec}, total: 3}
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

	// Feed both sides of the wire and one closed lease span.
	ctl.FrameTx("west", wire.Advertise{}, 40, true)
	ctl.LeaseRenew("west", 1.0, 1.2, true)
	rec.FrameRx(wire.TAdvertise, 40)
	if code, body = telemetryGet(t, h, "/metrics"); code != 200 ||
		!strings.Contains(body, `armnet_wire_frames_tx_total{kind="advertise",node="west"} 1`) ||
		!strings.Contains(body, `armnet_wire_frames_rx_total{kind="advertise",node="west"} 1`) {
		t.Fatalf("cluster metrics missing tx/rx series: %d %q", code, body)
	}
	if code, body = telemetryGet(t, h, "/spans?n=5"); code != 200 ||
		!strings.Contains(body, "wire-lease") {
		t.Fatalf("span tail: %d %q", code, body)
	}
	if code, _ = telemetryGet(t, h, "/spans?n=oops"); code != 400 {
		t.Fatalf("bad n: %d", code)
	}
	if code, _ = telemetryGet(t, h, "/no-such"); code != 404 {
		t.Fatalf("unknown path: %d", code)
	}

	// Two epoch-report lines bump /healthz; finish completes it.
	if _, err := (epochCounter{nt}).Write([]byte("{\"epoch\":0}\n{\"epoch\":1}\n")); err != nil {
		t.Fatal(err)
	}
	if _, body = telemetryGet(t, h, "/healthz"); !strings.Contains(body, `"done":2`) {
		t.Fatalf("epoch progress: %q", body)
	}
	nt.finish()
	if _, body = telemetryGet(t, h, "/healthz"); !strings.Contains(body, `"complete":true`) {
		t.Fatalf("finish: %q", body)
	}
}

// TestArmnodeTelemetryNodeMode covers the controller-less shape node
// mode runs: a lone NodeRecorder, nil *live.Controller — /spans must
// serve empty, not panic.
func TestArmnodeTelemetryNodeMode(t *testing.T) {
	rec := live.NewNodeRecorder("east")
	nt := &nodeTelemetry{mode: "node", ctl: nil, recs: []*live.NodeRecorder{rec}, total: 1}
	h := telemetry.NewHandler(nt.options())

	rec.FrameRx(wire.Hello{}.WireType(), 12)
	code, body := telemetryGet(t, h, "/metrics")
	if code != 200 || !strings.Contains(body, `armnet_wire_frames_rx_total{kind="hello",node="east"} 1`) {
		t.Fatalf("node metrics: %d %q", code, body)
	}
	if code, body = telemetryGet(t, h, "/spans"); code != 200 || body != "" {
		t.Fatalf("nil-controller spans: %d %q", code, body)
	}
}
