package testnet

import (
	"encoding/json"
	"fmt"

	"armnet/internal/obs"
	"armnet/internal/sortx"
	"armnet/internal/wire"
)

// correlator reconstructs cross-node spans from frame identities alone.
// Signal setup frames carry (conn, hop); the forward pass uses hops
// 0..n-1 and the commit pass retraces them as n..2n-1, so the span of a
// setup round trip is first-setup-tx → commit-tx at hop 2n-1, with n
// derived from the highest forward hop observed — no wire change, no
// controller-internal state. Handoff spans open at the runner's
// break-before-make instant and close when the replacement setup's last
// commit goes out; lease spans are single renewal round trips.
//
// Callers hold the owning WireRecorder's mutex; the correlator itself is
// not concurrency-safe. now is the run's clock, set by Run.
type correlator struct {
	now      func() float64
	setups   map[string]*setupState
	handoffs map[string]*obs.Span
	next     map[string]int
	closed   []obs.Span

	setupHist   *obs.Histogram
	handoffHist *obs.Histogram
	leaseHist   *obs.Histogram
}

// setupState is one open wire-setup span plus the highest forward hop
// seen, from which the closing commit hop (2*maxHop+1) is derived.
type setupState struct {
	span   *obs.Span
	maxHop int
}

func newCorrelator(setup, handoff, lease *obs.Histogram) *correlator {
	return &correlator{
		setups:      make(map[string]*setupState),
		handoffs:    make(map[string]*obs.Span),
		next:        make(map[string]int),
		setupHist:   setup,
		handoffHist: handoff,
		leaseHist:   lease,
	}
}

// span opens a new wire span for the given identity. IDs take the form
// "conn#wN" — the "w" marks the wire namespace so live spans never
// collide with the sim observer's "conn#N" lifecycle spans.
func (co *correlator) span(conn, name string, start float64) *obs.Span {
	n := co.next[conn]
	co.next[conn] = n + 1
	return &obs.Span{
		ID:    fmt.Sprintf("%s#w%d", conn, n),
		Conn:  conn,
		Name:  name,
		Start: start,
	}
}

// emit closes a span and records its duration in the histogram.
func (co *correlator) emit(s *obs.Span, end float64, status string, h *obs.Histogram) {
	s.End = end
	s.Status = status
	if s.Attrs != nil {
		s.Attrs.Latency = end - s.Start
		if *s.Attrs == (obs.SpanAttrs{}) {
			s.Attrs = nil
		}
	}
	if h != nil {
		h.Observe(end - s.Start)
	}
	co.closed = append(co.closed, *s)
}

// observeTx folds one transmitted frame into the span state.
func (co *correlator) observeTx(m wire.Message) {
	switch f := m.(type) {
	case wire.SignalSetup:
		st := co.setups[f.Conn]
		if st == nil {
			st = &setupState{span: co.span(f.Conn, "wire-setup", co.now())}
			st.span.Attrs = &obs.SpanAttrs{}
			co.setups[f.Conn] = st
		}
		if int(f.Hop) > st.maxHop {
			st.maxHop = int(f.Hop)
		}
	case wire.SignalCommit:
		st := co.setups[f.Conn]
		if st == nil {
			return
		}
		if int(f.Hop) == 2*st.maxHop+1 {
			co.emit(st.span, co.now(), "committed", co.setupHist)
			delete(co.setups, f.Conn)
			if h := co.handoffs[f.Conn]; h != nil {
				co.emit(h, co.now(), "ok", co.handoffHist)
				delete(co.handoffs, f.Conn)
			}
		}
	case wire.SignalAbort:
		co.abort(f.Conn, f.Reason)
	}
}

// abort closes any open setup and handoff spans for the connection.
func (co *correlator) abort(conn, reason string) {
	if st := co.setups[conn]; st != nil {
		st.span.Attrs.Reason = reason
		co.emit(st.span, co.now(), "aborted", co.setupHist)
		delete(co.setups, conn)
	}
	if h := co.handoffs[conn]; h != nil {
		if h.Attrs == nil {
			h.Attrs = &obs.SpanAttrs{}
		}
		h.Attrs.Reason = reason
		co.emit(h, co.now(), "dropped", co.handoffHist)
		delete(co.handoffs, conn)
	}
}

// handoffBreak opens the break-before-make span (closing any stale
// predecessor as "open" first).
func (co *correlator) handoffBreak(conn, from, to string) {
	if h := co.handoffs[conn]; h != nil {
		co.emit(h, co.now(), "open", co.handoffHist)
	}
	s := co.span(conn, "wire-handoff", co.now())
	s.Attrs = &obs.SpanAttrs{From: from, To: to}
	co.handoffs[conn] = s
}

// leaseSpan records one renewal round trip as an already-closed span.
func (co *correlator) leaseSpan(agent string, start, end float64, acked bool) {
	s := co.span(agent, "wire-lease", start)
	status := "ok"
	if !acked {
		status = "lost"
	}
	s.Attrs = &obs.SpanAttrs{}
	co.emit(s, end, status, co.leaseHist)
}

// finish closes every still-open span in sorted identity order, so the
// trailing output is deterministic. Idempotent.
func (co *correlator) finish(end float64) {
	for _, conn := range sortx.Keys(co.setups) {
		st := co.setups[conn]
		co.emit(st.span, end, "open", co.setupHist)
	}
	co.setups = make(map[string]*setupState)
	for _, conn := range sortx.Keys(co.handoffs) {
		co.emit(co.handoffs[conn], end, "open", co.handoffHist)
	}
	co.handoffs = make(map[string]*obs.Span)
}

// jsonl renders the closed spans one JSON object per line.
func (co *correlator) jsonl() []byte {
	var out []byte
	for i := range co.closed {
		line, err := json.Marshal(&co.closed[i])
		if err != nil {
			// Span contains only plain data types; Marshal cannot fail.
			panic(err)
		}
		out = append(out, line...)
		out = append(out, '\n')
	}
	return out
}
