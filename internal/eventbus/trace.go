package eventbus

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"strconv"
)

// Recorder serializes every record it observes as one JSON line:
//
//	{"seq":1,"t":0,"type":"connection-requested","ev":{"portable":"p0"}}
//
// Encoding is deterministic and byte-identical to what encoding/json
// (HTML escaping on) makes of the envelope and the tagged payload
// struct: fields in declaration order under their tag names, omitempty
// honoured, floats in Go's shortest representation. Nothing reflects,
// though: the envelope is appended here and the payload by the event's
// own appendJSON, into one scratch slice that reaches the sink in one
// Write per record. TestAppendMatchesEncodingJSON and
// FuzzRecorderMatchesReference pin the bytes to the reflective encoder.
//
// A sweep's hops all fire inside one des event, so most records carry
// the clock reading of the record before them. The recorder keeps that
// reading's bits and its text and formats a timestamp only when the bits
// change — same bits, same text, so the memo cannot alter a byte.
//
// The recorder also audits the stream it is asked to serialize: the
// sequence numbers it observes must increase by exactly one after the
// first record, since a gap or regression means the trace on disk is not
// the stream the bus published (a second recorder, a re-attached bus, or
// records replayed out of order). Violations latch an error like write
// failures do, and so does a NaN or ±Inf anywhere in a record, which
// JSON cannot spell: no part of that line is written.
type Recorder struct {
	w       io.Writer
	err     error
	lastSeq uint64
	started bool
	line    []byte // scratch for the line under construction
	tBits   uint64 // the clock reading tText spells; valid once tText is non-empty
	tText   []byte
}

// AttachRecorder subscribes a new JSONL recorder for every event on the
// bus and returns it. The first write, sequence or value error is
// latched and stops further output; check Err after the run.
func AttachRecorder(bus *Bus, w io.Writer) *Recorder {
	// A line is 100–200 bytes: start the scratch there in one allocation
	// rather than let the first record double its way up in six.
	r := &Recorder{w: w, line: make([]byte, 0, 256)}
	if len(bus.all) == 0 {
		bus.rec = r
	}
	bus.Subscribe(r.observe)
	return r
}

// observe is the subscriber: the boxed route into record.
func (r *Recorder) observe(rec Record) { record(r, rec.Seq, rec.Time, rec.Event) }

// record serializes one stamped event. It is generic so that Pub can
// hand it a concrete payload with nothing boxed; observe instantiates it
// at Event. Both routes run this one body, so they write the same bytes
// and latch the same errors.
func record[T Event](r *Recorder, seq uint64, t float64, ev T) {
	if r.err != nil {
		return
	}
	if r.started && seq != r.lastSeq+1 {
		r.err = fmt.Errorf("eventbus: trace sequence broken: observed seq %d after %d", seq, r.lastSeq)
		return
	}
	r.started = true
	r.lastSeq = seq
	if bits := math.Float64bits(t); bits != r.tBits || len(r.tText) == 0 {
		r.tBits, r.tText = bits, appendFloat(r.tText[:0], "", t)
	}
	line := append(r.line[:0], `{"seq":`...)
	line = strconv.AppendUint(line, seq, 10)
	line = append(line, `,"t":`...)
	line = append(line, r.tText...)
	line = append(line, `,"type":"`...)
	line = append(line, ev.Kind().String()...)
	line = append(line, `","ev":`...)
	line = ev.appendJSON(line)
	line = append(line, '}', '\n')
	r.line = line[:0]
	if i := bytes.IndexByte(line, nonFinite); i >= 0 {
		// appendFloat left the value's text behind the flag; the number
		// it stood for would have ended at the next comma or brace.
		text := line[i+1:]
		text = text[:bytes.IndexAny(text, ",}")]
		r.err = fmt.Errorf("eventbus: trace write: json: unsupported value: %s", text)
		return
	}
	if _, err := r.w.Write(line); err != nil {
		r.err = fmt.Errorf("eventbus: trace write: %w", err)
	}
}

// Err reports the first error encountered while writing the trace.
func (r *Recorder) Err() error { return r.err }
