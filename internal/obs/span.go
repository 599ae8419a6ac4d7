package obs

import (
	"encoding/json"
	"fmt"
	"io"

	"armnet/internal/eventbus"
	"armnet/internal/sortx"
)

// Span is one reconstructed interval of a connection's lifecycle. IDs
// are stable and causal: the root lifecycle span of conn-7 is "conn-7#0",
// and every child (setup, each handoff, each degrade interval) takes the
// next per-connection ordinal in creation order, with Parent naming the
// root. Times are simulated seconds.
type Span struct {
	ID     string     `json:"id"`
	Parent string     `json:"parent,omitempty"`
	Conn   string     `json:"conn"`
	Name   string     `json:"name"`
	Start  float64    `json:"start"`
	End    float64    `json:"end"`
	Status string     `json:"status"`
	Attrs  *SpanAttrs `json:"attrs,omitempty"`
}

// SpanAttrs carries the span's event-derived annotations; zero-valued
// fields are omitted from the JSONL encoding.
type SpanAttrs struct {
	Portable   string  `json:"portable,omitempty"`
	From       string  `json:"from,omitempty"`
	To         string  `json:"to,omitempty"`
	Link       string  `json:"link,omitempty"`
	Reason     string  `json:"reason,omitempty"`
	Predicted  bool    `json:"predicted,omitempty"`
	BestEffort bool    `json:"best_effort,omitempty"`
	Holds      int     `json:"holds,omitempty"`
	Updates    int     `json:"updates,omitempty"`
	Latency    float64 `json:"latency,omitempty"`
	LastBW     float64 `json:"last_bw,omitempty"`
}

// connSpans is the open span state of one connection.
type connSpans struct {
	root    *Span
	setup   *Span
	handoff *Span
	degrade *Span
	next    int // next child ordinal
}

// spanBuilder reconstructs lifecycle spans from the event stream. Spans
// are exported (and counted) when they close; whatever is still open at
// Finish closes with status "open" in sorted connection order, so the
// JSONL output is deterministic end to end.
type spanBuilder struct {
	w     io.Writer // nil = build and count, don't export
	err   error
	open  map[string]*connSpans
	count func(name string) // spans_total hook
}

func newSpanBuilder(w io.Writer, count func(name string)) *spanBuilder {
	return &spanBuilder{w: w, open: make(map[string]*connSpans), count: count}
}

func (sb *spanBuilder) state(conn string, t float64) *connSpans {
	cs := sb.open[conn]
	if cs == nil {
		cs = &connSpans{
			root: &Span{ID: conn + "#0", Conn: conn, Name: "lifecycle", Start: t, Attrs: &SpanAttrs{}},
			next: 1,
		}
		sb.open[conn] = cs
	}
	return cs
}

func (cs *connSpans) child(conn, name string, t float64) *Span {
	s := &Span{
		ID:     fmt.Sprintf("%s#%d", conn, cs.next),
		Parent: cs.root.ID,
		Conn:   conn,
		Name:   name,
		Start:  t,
	}
	cs.next++
	return s
}

func (sb *spanBuilder) emit(s *Span, t float64, status string) {
	s.End = t
	s.Status = status
	if s.Attrs != nil && *s.Attrs == (SpanAttrs{}) {
		s.Attrs = nil
	}
	sb.count(s.Name)
	if sb.w == nil || sb.err != nil {
		return
	}
	line, err := json.Marshal(s)
	if err == nil {
		line = append(line, '\n')
		_, err = sb.w.Write(line)
	}
	if err != nil {
		sb.err = fmt.Errorf("obs: span export: %w", err)
	}
}

// close finishes a connection: open children first, then the root.
func (sb *spanBuilder) close(conn string, t float64, status string) {
	cs := sb.open[conn]
	if cs == nil {
		return
	}
	for _, child := range []**Span{&cs.setup, &cs.handoff, &cs.degrade} {
		if *child != nil {
			sb.emit(*child, t, "open")
			*child = nil
		}
	}
	sb.emit(cs.root, t, status)
	delete(sb.open, conn)
}

// observe folds one event into the span state.
func (sb *spanBuilder) observe(r eventbus.Record) {
	t := r.Time
	switch ev := r.Event.(type) {
	case eventbus.SignalHold:
		cs := sb.state(ev.Conn, t)
		if cs.setup == nil {
			cs.setup = cs.child(ev.Conn, "setup", t)
			cs.setup.Attrs = &SpanAttrs{}
		}
		cs.setup.Attrs.Holds++
	case eventbus.SignalCommit:
		cs := sb.state(ev.Conn, t)
		if cs.setup == nil {
			cs.setup = cs.child(ev.Conn, "setup", t)
			cs.setup.Attrs = &SpanAttrs{}
		}
		cs.setup.Attrs.Latency = ev.Latency
		sb.emit(cs.setup, t, "committed")
		cs.setup = nil
	case eventbus.SignalAbort:
		if cs := sb.open[ev.Conn]; cs != nil {
			if cs.setup != nil {
				cs.setup.Attrs.Reason = ev.Reason
				sb.emit(cs.setup, t, "aborted")
				cs.setup = nil
			}
			sb.close(ev.Conn, t, "aborted")
		}
	case eventbus.ConnectionAdmitted:
		cs := sb.state(ev.Conn, t)
		cs.root.Attrs.Portable = ev.Portable
		cs.root.Attrs.BestEffort = ev.BestEffort
		if cs.setup == nil && cs.next == 1 {
			// Instantaneous admission with no prior signaling: a
			// zero-length setup span keeps the lifecycle shape uniform
			// with the signaled path.
			setup := cs.child(ev.Conn, "setup", t)
			sb.emit(setup, t, "committed")
		}
	case eventbus.HandoffAttempt:
		cs := sb.state(ev.Conn, t)
		if cs.handoff != nil {
			sb.emit(cs.handoff, t, "open")
		}
		cs.handoff = cs.child(ev.Conn, "handoff", t)
		cs.handoff.Attrs = &SpanAttrs{From: ev.From, To: ev.To, Predicted: ev.Predicted}
	case eventbus.HandoffLatency:
		if cs := sb.open[ev.Conn]; cs != nil && cs.handoff != nil {
			cs.handoff.Attrs.Latency = ev.Latency
		}
	case eventbus.HandoffOutcome:
		cs := sb.open[ev.Conn]
		if cs == nil {
			return
		}
		if cs.handoff != nil {
			status := "ok"
			if ev.Dropped {
				status = "dropped"
			}
			sb.emit(cs.handoff, t, status)
			cs.handoff = nil
		}
		if ev.Dropped {
			sb.close(ev.Conn, t, "dropped")
		}
	case eventbus.DegradeCascade:
		cs := sb.open[ev.Conn]
		if cs == nil {
			return
		}
		switch ev.Action {
		case "degrade":
			if cs.degrade == nil {
				cs.degrade = cs.child(ev.Conn, "degrade", t)
				cs.degrade.Attrs = &SpanAttrs{Link: ev.Link}
			}
		case "restore":
			if cs.degrade != nil {
				sb.emit(cs.degrade, t, "restored")
				cs.degrade = nil
			}
		}
	case eventbus.BandwidthChange:
		if cs := sb.open[ev.Conn]; cs != nil {
			cs.root.Attrs.Updates++
			cs.root.Attrs.LastBW = ev.Bandwidth
		}
	case eventbus.ConnectionClosed:
		sb.close(ev.Conn, t, "closed")
	}
}

// finish closes every still-open connection at the end of the run.
func (sb *spanBuilder) finish(end float64) {
	for _, conn := range sortx.Keys(sb.open) {
		sb.close(conn, end, "open")
	}
}
