package telemetry

import (
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"armnet/internal/leakcheck"
)

func get(t *testing.T, h http.Handler, path string) (*http.Response, string) {
	t.Helper()
	req := httptest.NewRequest("GET", path, nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	res := rec.Result()
	body, err := io.ReadAll(res.Body)
	if err != nil {
		t.Fatal(err)
	}
	return res, string(body)
}

func TestMetricsEndpoint(t *testing.T) {
	h := NewHandler(Options{Metrics: func() ([]byte, error) {
		return []byte("armnet_test_total 3\n"), nil
	}})
	res, body := get(t, h, "/metrics")
	if res.StatusCode != 200 {
		t.Fatalf("status %d", res.StatusCode)
	}
	if ct := res.Header.Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Errorf("content type %q not Prometheus text 0.0.4", ct)
	}
	if body != "armnet_test_total 3\n" {
		t.Errorf("body %q", body)
	}
}

func TestMetricsError(t *testing.T) {
	h := NewHandler(Options{Metrics: func() ([]byte, error) {
		return nil, errors.New("merge failed")
	}})
	res, body := get(t, h, "/metrics")
	if res.StatusCode != 500 {
		t.Fatalf("status %d", res.StatusCode)
	}
	if !strings.Contains(body, "merge failed") {
		t.Errorf("error body %q", body)
	}
}

func TestMetricsNilCallback(t *testing.T) {
	res, body := get(t, NewHandler(Options{}), "/metrics")
	if res.StatusCode != 200 || body != "" {
		t.Fatalf("nil metrics: status %d body %q", res.StatusCode, body)
	}
}

func TestHealthz(t *testing.T) {
	h := NewHandler(Options{Health: func() any {
		return map[string]any{"done": 2, "total": 5, "complete": false}
	}})
	res, body := get(t, h, "/healthz")
	if res.StatusCode != 200 {
		t.Fatalf("status %d", res.StatusCode)
	}
	if ct := res.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("content type %q", ct)
	}
	want := `{"complete":false,"done":2,"total":5}` + "\n"
	if body != want {
		t.Errorf("body %q want %q", body, want)
	}
}

func TestHealthzNilCallback(t *testing.T) {
	_, body := get(t, NewHandler(Options{}), "/healthz")
	if body != "{}\n" {
		t.Errorf("nil health body %q", body)
	}
}

func TestSpansTail(t *testing.T) {
	stream := []byte("{\"a\":1}\n{\"a\":2}\n{\"a\":3}\n")
	h := NewHandler(Options{Spans: func() []byte { return stream }})

	res, body := get(t, h, "/spans")
	if res.StatusCode != 200 || body != string(stream) {
		t.Errorf("default tail: status %d body %q", res.StatusCode, body)
	}
	if ct := res.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("content type %q", ct)
	}
	if _, body = get(t, h, "/spans?n=2"); body != "{\"a\":2}\n{\"a\":3}\n" {
		t.Errorf("n=2 body %q", body)
	}
	if _, body = get(t, h, "/spans?n=0"); body != "" {
		t.Errorf("n=0 body %q", body)
	}
	for _, q := range []string{"/spans?n=x", "/spans?n=-1"} {
		if res, _ = get(t, h, q); res.StatusCode != 400 {
			t.Errorf("%s: status %d, want 400", q, res.StatusCode)
		}
	}
}

func TestTail(t *testing.T) {
	cases := []struct {
		stream string
		n      int
		want   string
	}{
		{"", 5, ""},
		{"a\nb\nc\n", 2, "b\nc\n"},
		{"a\nb\nc\n", 10, "a\nb\nc\n"},
		{"a\nb\nc", 2, "b\nc"}, // no trailing newline: partial last line counts
		{"a\nb\nc\n", 0, ""},
	}
	for _, c := range cases {
		if got := string(tail([]byte(c.stream), c.n)); got != c.want {
			t.Errorf("Tail(%q, %d) = %q, want %q", c.stream, c.n, got, c.want)
		}
	}
}

func TestUnknownPath404(t *testing.T) {
	res, _ := get(t, NewHandler(Options{}), "/nope")
	if res.StatusCode != 404 {
		t.Fatalf("status %d", res.StatusCode)
	}
}

func TestPprofIndex(t *testing.T) {
	res, body := get(t, NewHandler(Options{}), "/debug/pprof/")
	if res.StatusCode != 200 || !strings.Contains(body, "goroutine") {
		t.Fatalf("pprof index: status %d", res.StatusCode)
	}
}

// TestServe round-trips through a real listener: Addr resolves the
// ephemeral port and the server answers until Close.
func TestServe(t *testing.T) {
	s, err := Serve("127.0.0.1:0", Options{Health: func() any { return map[string]any{"ok": true} }})
	if err != nil {
		t.Skipf("cannot bind loopback: %v", err)
	}
	defer s.Close()
	if !strings.Contains(s.Addr(), ":") || strings.HasSuffix(s.Addr(), ":0") {
		t.Fatalf("Addr %q did not resolve the port", s.Addr())
	}
	res, err := http.Get("http://" + s.Addr() + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(res.Body)
	res.Body.Close()
	if string(body) != "{\"ok\":true}\n" {
		t.Fatalf("body %q", body)
	}
}

// TestCloseStopsGoroutines pins the server's lifecycle: once Close has
// returned and every in-flight handler has finished, no goroutine Serve
// started is left. The client's idle connections are closed first, so
// only the server's goroutines are counted.
func TestCloseStopsGoroutines(t *testing.T) {
	for _, tc := range []struct {
		name      string
		closes    int
		midScrape bool
	}{
		{name: "serve then close", closes: 1},
		{name: "close twice", closes: 2},
		{name: "close during a /spans scrape", closes: 1, midScrape: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			base := leakcheck.Take()
			entered, release := make(chan struct{}), make(chan struct{})
			s, err := Serve("127.0.0.1:0", Options{Spans: func() []byte {
				close(entered)
				<-release
				return nil
			}})
			if err != nil {
				t.Skipf("cannot bind loopback: %v", err)
			}
			tr := &http.Transport{}
			client := &http.Client{Transport: tr}
			if tc.midScrape {
				done := make(chan struct{})
				go func() {
					defer close(done)
					if res, err := client.Get("http://" + s.Addr() + "/spans"); err == nil {
						_, _ = io.Copy(io.Discard, res.Body)
						res.Body.Close()
					}
				}()
				<-entered
				s.Close()
				close(release)
				<-done
			} else {
				res, err := client.Get("http://" + s.Addr() + "/healthz")
				if err != nil {
					t.Fatal(err)
				}
				_, _ = io.Copy(io.Discard, res.Body)
				res.Body.Close()
				for i := 0; i < tc.closes; i++ {
					s.Close()
				}
			}
			tr.CloseIdleConnections()
			if err := base.Settled(5 * time.Second); err != nil {
				t.Fatal(err)
			}
		})
	}
}
