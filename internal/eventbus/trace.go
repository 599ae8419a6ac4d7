package eventbus

import (
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
// LineLen, and remembers the text of what it formatted, so that a value it
// has met before is appended by one copy. The memo is keyed so that it
// cannot alter a byte:
//
//   - The clock reading is the last one's bits and text. A sweep's hops
//     all fire inside one des event, so most records carry the reading
//     of the record before them.
//   - A payload float is a way of an eight-way set chosen by its bits and
//     keyed by them, never by ==: 0 and -0 compare equal and print
//     differently.
//   - A string is a way of a two-way set chosen by its bytes' address and
//     keyed by that address and its length. A string is immutable and the
//     entry's pointer keeps its bytes alive, so no other text can come to
//     sit at that address while the entry holds it, and the length tells
//     apart two strings that start at the same byte (a substring and its
//     whole). A node's lines name the same few interned strings over and
//     over, and LineLen reads their quoted lengths from the same entries.
//   - A WireDelivery's opening run, node, protocol and message type, is a
//     slot chosen by the message type and keyed by all three strings.
//
// A string too long for an entry, or one whose escapes are, is quoted
// afresh each time. The zero value is ready to use and owns no heap
// memory; a warm encoder allocates nothing.
type LineEncoder struct {
	tBits uint64
	tLen  int // bytes of tText in use; 0 until the first reading
	// tText holds the reading's text. appendFloat's longest number is 25
	// bytes (a sign, "0.", five zeros and 17 digits just above 1e-6) and
	// its non-finite form 4, so the array never overflows.
	tText [32]byte

	// failed latches the line's first NaN or ±Inf, bad, for AppendLine to
	// report: JSON cannot spell one, so no part of that line is kept.
	failed bool
	bad    float64

	floats [1 << floatSetBits]floatSet
	quoted [1 << quotedSetBits]quotedSet
	heads  [1 << headSlotBits]headMemo
}

const (
	floatSetBits   = 3
	quotedSetBits  = 6
	headSlotBits   = 4
	fibonacciMixer = 0x9e3779b97f4a7c15 // 2^64 / φ: spreads a key's low bits into the top ones
)

// slot maps a memo key to one of 1<<bits slots.
func slot(key uint64, bits uint) uint64 { return key * fibonacciMixer >> (64 - bits) }

// strKey names a string by its bytes' address and length. Holding the
// pointer keeps the bytes alive, so no other text can come to sit there.
type strKey struct {
	p *byte
	n int
}

func keyOf(s string) strKey { return strKey{unsafe.StringData(s), len(s)} }

func (k strKey) is(s string) bool { return k.p == unsafe.StringData(s) && k.n == len(s) }

// floatSet is eight payload floats' texts by their bits, the bits side
// by side so that a lookup reads one cache line. A run's adaptation
// rounds cycle through a few dozen stamps: one way per float, or two,
// keep losing them to one another. A miss replaces the oldest way.
type floatSet struct {
	bits [8]uint64
	n    [8]uint8    // bytes of text in use; 0 while the way is empty
	next uint8       // the way the next miss replaces
	text [8][25]byte // appendFloat's longest number (see tText)
}

// quotedSet is two string entries and which of them was used last; a
// miss replaces the other, so two strings that hash alike both stay.
type quotedSet struct {
	ways [2]quotedMemo
	last uint8
}

// quotedMemo is one string's quoted length, and its quoted text when
// that fits: ok marks text as holding it. LineLen sets the length only,
// and the first str to need the text fills it.
type quotedMemo struct {
	key  strKey
	q    int32 // the quoted length
	ok   bool
	text [43]byte
}

// maxMemoLen is the longest string an entry can hold quoted.
const maxMemoLen = len(quotedMemo{}.text) - len(`""`)

// headMemo is a WireDelivery's opening run, {"node":…,"proto":…,"msg":…,
// keyed by its three strings. A node's lines repeat it: the node is the
// same on every line, and the message type decides the protocol.
type headMemo struct {
	node, proto, msg strKey
	n                int // bytes of text in use; 0 while the slot is empty
	text             [88]byte
}

// timeText returns t as the trace spells it.
func (e *LineEncoder) timeText(t float64) []byte {
	if bits := math.Float64bits(t); bits != e.tBits || e.tLen == 0 {
		e.tBits = bits
		e.tLen = len(appendFloat(e.tText[:0], t))
	}
	return e.tText[:e.tLen]
}

// fail latches f, a NaN or ±Inf, unless the line already holds one:
// encoding/json names the first it meets.
func (e *LineEncoder) fail(f float64) {
	if !e.failed {
		e.failed, e.bad = true, f
	}
}

// float appends key and f, from the memo when it holds f's bits.
func (e *LineEncoder) float(dst []byte, key string, f float64) []byte {
	dst = append(dst, key...)
	if f-f != 0 { // NaN or ±Inf
		e.fail(f)
		return dst
	}
	bits := math.Float64bits(f)
	set := &e.floats[slot(bits, floatSetBits)]
	for w, b := range set.bits {
		if b == bits && set.n[w] != 0 {
			return append(dst, set.text[w][:set.n[w]]...)
		}
	}
	w := set.next
	set.next = (w + 1) % uint8(len(set.bits))
	set.bits[w] = bits
	set.n[w] = uint8(len(appendFloat(set.text[w][:0], f)))
	return append(dst, set.text[w][:set.n[w]]...)
}

// str appends key and s quoted, from the memo when it holds s's text.
func (e *LineEncoder) str(dst []byte, key, s string) []byte {
	dst = append(dst, key...)
	if len(s) == 0 || len(s) > maxMemoLen {
		return appendString(dst, s)
	}
	m, hit := e.entry(s)
	if hit && m.ok {
		return append(dst, m.text[:m.q]...)
	}
	start := len(dst)
	dst = appendString(dst, s)
	q := dst[start:]
	m.q = int32(len(q))
	if m.ok = len(q) <= len(m.text); m.ok {
		copy(m.text[:], q)
	}
	return dst
}

// quotedLen is len(e.str(nil, "", s)), from the memo when it holds s.
func (e *LineEncoder) quotedLen(s string) int {
	if len(s) == 0 || len(s) > maxMemoLen {
		return quotedLen(s)
	}
	m, hit := e.entry(s)
	if !hit {
		m.q = int32(quotedLen(s))
	}
	return int(m.q)
}

// entry returns s's memo entry and whether it already held s. On a miss
// the entry is s's from now on, with neither length nor text yet.
func (e *LineEncoder) entry(s string) (*quotedMemo, bool) {
	set := &e.quoted[slot(uint64(uintptr(unsafe.Pointer(unsafe.StringData(s)))), quotedSetBits)]
	if m := &set.ways[set.last]; m.key.is(s) {
		return m, true
	}
	if m := &set.ways[set.last^1]; m.key.is(s) {
		set.last ^= 1
		return m, true
	}
	set.last ^= 1
	m := &set.ways[set.last]
	m.key, m.ok = keyOf(s), false
	return m, false
}

// head returns ev's opening run and its length. The text comes from the
// memo, and is nil when the run is too long for an entry to hold.
func (e *LineEncoder) head(ev *WireDelivery) ([]byte, int) {
	m := &e.heads[slot(uint64(uintptr(unsafe.Pointer(unsafe.StringData(ev.Type)))), headSlotBits)]
	if m.n != 0 && m.msg.is(ev.Type) && m.proto.is(ev.Proto) && m.node.is(ev.Node) {
		return m.text[:m.n], m.n
	}
	n := len(`{"node":`) + e.quotedLen(ev.Node) + len(`,"proto":`) + e.quotedLen(ev.Proto) + len(`,"msg":`) + e.quotedLen(ev.Type)
	if n > len(m.text) {
		return nil, n
	}
	text := e.str(m.text[:0], `{"node":`, ev.Node)
	text = e.str(text, `,"proto":`, ev.Proto)
	text = e.str(text, `,"msg":`, ev.Type)
	m.node, m.proto, m.msg, m.n = keyOf(ev.Node), keyOf(ev.Proto), keyOf(ev.Type), len(text)
	return text, n
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
	e.failed = false
	dst = append(dst, `{"seq":`...)
	dst = strconv.AppendUint(dst, seq, 10)
	dst = append(dst, `,"t":`...)
	if t-t != 0 {
		e.fail(t)
	} else {
		dst = append(dst, e.timeText(t)...)
	}
	dst = append(dst, `,"type":"`...)
	dst = append(dst, ev.Kind().String()...)
	dst = append(dst, `","ev":`...)
	dst = ev.appendJSON(e, dst)
	dst = append(dst, '}', '\n')
	if e.failed {
		return dst[:start], fmt.Errorf("eventbus: trace write: json: unsupported value: %s", strconv.FormatFloat(e.bad, 'g', -1, 64))
	}
	return dst, nil
}

// LineLen returns the length of the line AppendLine appends for a
// WireDelivery, without building it, so that a testnet node rendering its
// whole frame log can allocate the output once at its final size. It
// reads and advances e's memo as AppendLine does. WireDelivery is the one
// kind rendered in bulk, so the one kind that knows its length.
func LineLen(e *LineEncoder, seq uint64, t float64, ev *WireDelivery) int {
	return len(`{"seq":`) + uintLen(seq) + len(`,"t":`) + len(e.timeText(t)) +
		len(`,"type":"`) + len(ev.Kind().String()) + len(`","ev":`) + ev.jsonLen(e) + len("}\n")
}
