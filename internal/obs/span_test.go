package obs

import (
	"bytes"
	"encoding/json"
	"errors"
	"strings"
	"testing"

	"armnet/internal/eventbus"
)

func collectSpans(t *testing.T, buf *bytes.Buffer) []Span {
	t.Helper()
	var out []Span
	for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		if line == "" {
			continue
		}
		var s Span
		if err := json.Unmarshal([]byte(line), &s); err != nil {
			t.Fatalf("bad span line %q: %v", line, err)
		}
		out = append(out, s)
	}
	return out
}

func TestSpanBuilderFinishClosesOpenSorted(t *testing.T) {
	var buf bytes.Buffer
	sb := newSpanBuilder(&buf, func(string) {})
	// Two connections left open; finish must close them in sorted order.
	sb.observe(eventbus.Record{Time: 1, Event: eventbus.ConnectionAdmitted{Conn: "c9", Portable: "p0"}})
	sb.observe(eventbus.Record{Time: 2, Event: eventbus.ConnectionAdmitted{Conn: "c1", Portable: "p1"}})
	sb.observe(eventbus.Record{Time: 3, Event: eventbus.HandoffAttempt{Conn: "c1", From: "a", To: "b"}})
	sb.finish(10)

	spans := collectSpans(t, &buf)
	var roots []Span
	for _, s := range spans {
		if s.Name == "lifecycle" {
			roots = append(roots, s)
		}
	}
	if len(roots) != 2 || roots[0].Conn != "c1" || roots[1].Conn != "c9" {
		t.Fatalf("roots = %+v, want c1 then c9", roots)
	}
	for _, s := range roots {
		if s.Status != "open" || s.End != 10 {
			t.Errorf("root %s = status %q end %v", s.ID, s.Status, s.End)
		}
	}
	// c1's unresolved handoff closed before its root, status open.
	var sawHandoff bool
	for _, s := range spans {
		if s.Conn == "c1" && s.Name == "handoff" {
			sawHandoff = true
			if s.Status != "open" || s.Parent != "c1#0" {
				t.Errorf("handoff span = %+v", s)
			}
		}
	}
	if !sawHandoff {
		t.Error("unresolved handoff span not exported")
	}
}

func TestSpanBuilderDegradeInterval(t *testing.T) {
	var buf bytes.Buffer
	sb := newSpanBuilder(&buf, func(string) {})
	sb.observe(eventbus.Record{Time: 0, Event: eventbus.ConnectionAdmitted{Conn: "c0"}})
	sb.observe(eventbus.Record{Time: 5, Event: eventbus.DegradeCascade{Conn: "c0", Link: "l0", Action: "degrade"}})
	// A second degrade while already degraded must not open a new span.
	sb.observe(eventbus.Record{Time: 6, Event: eventbus.DegradeCascade{Conn: "c0", Link: "l0", Action: "degrade"}})
	sb.observe(eventbus.Record{Time: 9, Event: eventbus.DegradeCascade{Conn: "c0", Link: "l0", Action: "restore"}})
	sb.observe(eventbus.Record{Time: 12, Event: eventbus.ConnectionClosed{Conn: "c0"}})

	var degrades []Span
	for _, s := range collectSpans(t, &buf) {
		if s.Name == "degrade" {
			degrades = append(degrades, s)
		}
	}
	if len(degrades) != 1 {
		t.Fatalf("degrade spans = %d, want 1", len(degrades))
	}
	d := degrades[0]
	if d.Start != 5 || d.End != 9 || d.Status != "restored" || d.Attrs == nil || d.Attrs.Link != "l0" {
		t.Errorf("degrade span = %+v", d)
	}
}

func TestSpanBuilderCountsWithoutWriter(t *testing.T) {
	counts := map[string]int{}
	sb := newSpanBuilder(nil, func(name string) { counts[name]++ })
	sb.observe(eventbus.Record{Time: 0, Event: eventbus.ConnectionAdmitted{Conn: "c0"}})
	sb.observe(eventbus.Record{Time: 1, Event: eventbus.ConnectionClosed{Conn: "c0"}})
	if counts["lifecycle"] != 1 || counts["setup"] != 1 {
		t.Fatalf("counts = %v", counts)
	}
}

type failWriter struct{ after int }

func (w *failWriter) Write(p []byte) (int, error) {
	if w.after <= 0 {
		return 0, errors.New("disk full")
	}
	w.after--
	return len(p), nil
}

func TestSpanBuilderLatchesWriteError(t *testing.T) {
	sb := newSpanBuilder(&failWriter{after: 1}, func(string) {})
	sb.observe(eventbus.Record{Time: 0, Event: eventbus.ConnectionAdmitted{Conn: "c0"}})
	sb.observe(eventbus.Record{Time: 1, Event: eventbus.ConnectionClosed{Conn: "c0"}})
	err := sb.err
	if err == nil || !strings.Contains(err.Error(), "span export") {
		t.Fatalf("Err = %v, want latched span export error", err)
	}
	// Further closes are no-ops on the writer but must not panic.
	sb.observe(eventbus.Record{Time: 2, Event: eventbus.ConnectionAdmitted{Conn: "c1"}})
	sb.finish(3)
	if sb.err != err {
		t.Fatalf("latched error changed: %v", sb.err)
	}
}
