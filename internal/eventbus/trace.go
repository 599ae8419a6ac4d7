package eventbus

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"strconv"
	"unsafe"
)

// Recorder serializes every record it observes as one JSON line:
//
//	{"seq":1,"t":0,"type":"connection-requested","ev":{"portable":"p0"}}
//
// Encoding is deterministic and byte-identical to what encoding/json
// (HTML escaping on) makes of the envelope and the tagged payload
// struct: fields in declaration order under their tag names, omitempty
// honoured, floats in Go's shortest representation. Nothing reflects,
// though: AppendLine appends the envelope and the event's own appendJSON
// the payload, into one scratch slice that reaches the sink in one Write
// per record. TestAppendMatchesEncodingJSON and
// FuzzRecorderMatchesReference pin the bytes to the reflective encoder.
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
	enc     LineEncoder
}

// AttachRecorder subscribes a new JSONL recorder for every event on the
// bus and returns it. The first write, sequence or value error is
// latched and stops further output; check Err after the run.
func AttachRecorder(bus *Bus, w io.Writer) *Recorder {
	// A line is 100–200 bytes: start the scratch there in one allocation
	// rather than let the first record double its way up in six.
	r := &Recorder{w: w, line: make([]byte, 0, 256)}
	bus.all = append(bus.all, entry{rec: r})
	return r
}

// record serializes one stamped event. It is generic so that Pub can
// hand it a concrete payload with nothing boxed.
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
	line, err := AppendLine(&r.enc, r.line[:0], seq, t, ev)
	r.line = line[:0]
	if err != nil {
		r.err = err
		return
	}
	if _, err := r.w.Write(line); err != nil {
		r.err = fmt.Errorf("eventbus: trace write: %w", err)
	}
}

// Err reports the first error encountered while writing the trace.
func (r *Recorder) Err() error { return r.err }

// LineEncoder assembles trace lines for AppendLine and sizes them for
// LineLen. A sweep's hops all fire inside one des event, so most records
// carry the clock reading of the record before them: the encoder keeps
// that reading's bits and its text and formats a timestamp only when the
// bits change — same bits, same text, so the memo cannot alter a byte.
// The zero value is ready to use and owns no heap memory.
type LineEncoder struct {
	tBits uint64
	tLen  int // bytes of tText in use; 0 until the first reading
	// tText holds the reading's text. appendFloat's longest number is 25
	// bytes (a sign, "0.", five zeros and 17 digits just above 1e-6) and
	// its non-finite form 5, so the array never overflows.
	tText [32]byte
	// quoted remembers the quoted length of the strings LineLen met
	// last, by their bytes' address: a node's lines name the same few
	// interned strings over and over. A string is immutable and the entry
	// keeps its bytes alive, so the same address and length are the same
	// text.
	quoted [64]quotedMemo
}

type quotedMemo struct {
	p    *byte
	n, q int
}

// quotedLen is the package's quotedLen(s), remembered.
func (e *LineEncoder) quotedLen(s string) int {
	if len(s) == 0 {
		return len(`""`)
	}
	p := unsafe.StringData(s)
	m := &e.quoted[uintptr(unsafe.Pointer(p))/8%uintptr(len(e.quoted))]
	if m.p != p || m.n != len(s) {
		*m = quotedMemo{p, len(s), quotedLen(s)}
	}
	return m.q
}

// timeText returns t as the trace spells it.
func (e *LineEncoder) timeText(t float64) []byte {
	if bits := math.Float64bits(t); bits != e.tBits || e.tLen == 0 {
		e.tBits = bits
		e.tLen = copy(e.tText[:], appendFloat(e.tText[:0], "", t))
	}
	return e.tText[:e.tLen]
}

// AppendLine appends the trace line of one stamped event to dst:
//
//	{"seq":1,"t":0,"type":"connection-requested","ev":{"portable":"p0"}}
//
// It is the recorder's whole encoder, exported so that a sink which keeps
// compact records instead of lines (a testnet node) renders the same
// bytes. A NaN or ±Inf anywhere in the record is an error naming the
// value, as encoding/json reports it, and dst comes back as it was.
func AppendLine[T Event](e *LineEncoder, dst []byte, seq uint64, t float64, ev T) ([]byte, error) {
	start := len(dst)
	dst = append(dst, `{"seq":`...)
	dst = strconv.AppendUint(dst, seq, 10)
	dst = append(dst, `,"t":`...)
	dst = append(dst, e.timeText(t)...)
	dst = append(dst, `,"type":"`...)
	dst = append(dst, ev.Kind().String()...)
	dst = append(dst, `","ev":`...)
	dst = ev.appendJSON(dst)
	dst = append(dst, '}', '\n')
	if i := bytes.IndexByte(dst[start:], nonFinite); i >= 0 {
		// appendFloat left the value's text behind the flag; the number
		// it stood for would have ended at the next comma or brace.
		text := dst[start+i+1:]
		text = text[:bytes.IndexAny(text, ",}")]
		return dst[:start], fmt.Errorf("eventbus: trace write: json: unsupported value: %s", text)
	}
	return dst, nil
}

// LineLen returns the length of the line AppendLine appends for a
// WireDelivery, without building it, so that a testnet node rendering its
// whole frame log can allocate the output once at its final size. It
// advances e's memo as AppendLine would. WireDelivery is the one kind
// rendered in bulk, so the one kind that knows its length.
func LineLen(e *LineEncoder, seq uint64, t float64, ev WireDelivery) int {
	return len(`{"seq":`) + uintLen(seq) + len(`,"t":`) + len(e.timeText(t)) +
		len(`,"type":"`) + len(ev.Kind().String()) + len(`","ev":`) + ev.jsonLen(e) + len("}\n")
}
