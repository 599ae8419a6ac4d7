package eventbus

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"unsafe"

	"armnet/internal/raceflag"
)

// traceLine and referenceRecorder are the recorder as it was before the
// append encoders: the envelope and the payload handed to encoding/json,
// struct tags and reflection doing the rest. They are the oracle the
// hand-written encoders are held to, nothing else uses them.
type traceLine struct {
	Seq  uint64  `json:"seq"`
	Time float64 `json:"t"`
	Type string  `json:"type"`
	Ev   Event   `json:"ev"`
}

type referenceRecorder struct {
	enc     *json.Encoder
	err     error
	lastSeq uint64
	started bool
}

func (r *referenceRecorder) observe(rec Record) {
	if r.err != nil {
		return
	}
	if r.started && rec.Seq != r.lastSeq+1 {
		r.err = fmt.Errorf("eventbus: trace sequence broken: observed seq %d after %d", rec.Seq, r.lastSeq)
		return
	}
	r.started = true
	r.lastSeq = rec.Seq
	err := r.enc.Encode(traceLine{Seq: rec.Seq, Time: rec.Time, Type: rec.Event.Kind().String(), Ev: rec.Event})
	if err != nil {
		r.err = fmt.Errorf("eventbus: trace write: %w", err)
	}
}

// everyKind holds one zero value of every event kind. A new kind needs a
// line here (and an appendJSON): TestAppendMatchesEncodingJSON fails
// while the table covers fewer than kindCount kinds.
var everyKind = []Event{
	ConnectionRequested{}, ConnectionAdmitted{}, ConnectionBlocked{}, ConnectionClosed{},
	AdmissionDecision{}, HandoffAttempt{}, HandoffOutcome{}, HandoffLatency{}, PoolClaim{},
	AdvanceReservation{}, PolicyReservation{}, BandwidthChange{}, AdaptationRound{},
	MaxminConverged{}, CapacityChange{}, SignalHold{}, SignalCommit{}, SignalAbort{},
	FlowStarted{}, FlowStopped{}, FaultMessage{}, FaultComponent{}, ControlRetransmit{},
	HoldReclaimed{}, Readvertise{}, InvariantViolation{}, OverloadStage{}, SetupShed{},
	DegradeCascade{}, BreakerState{}, WireDelivery{},
}

// valueGen turns a byte stream into field values that sit on the
// encoder's decision points. The differential test feeds it from a
// seeded PRNG, the fuzz target from the fuzzer's input.
type valueGen struct {
	next func() byte
	// finite keeps NaN and ±Inf out, for comparing encodings; without
	// it they are drawn on purpose, for comparing the error path.
	finite bool
}

func (g valueGen) u64() (v uint64) {
	for i := 0; i < 8; i++ {
		v = v<<8 | uint64(g.next())
	}
	return v
}

var (
	plainIDs = []string{"p07:3", "ap-off-1", "maxmin", "advertise", "off-1<->off-2", "hop-rejected"}
	// Every byte appendString treats specially, and 0x7f, which it does not.
	escapedBytes = "<>&\"\\\b\f\n\r\t\x00\x01\x1f\x7f /"
)

func (g valueGen) str() string {
	switch g.next() % 6 {
	case 0:
		return ""
	case 1:
		return plainIDs[int(g.next())%len(plainIDs)]
	case 2: // raw bytes: invalid UTF-8, truncated runes, anything
		b := make([]byte, g.next()%10)
		for i := range b {
			b[i] = g.next()
		}
		return string(b)
	case 3:
		b := make([]byte, 1+g.next()%5)
		for i := range b {
			b[i] = escapedBytes[int(g.next())%len(escapedBytes)]
		}
		return string(b)
	case 4: // U+2026 … U+202B: the two escaped separators and their neighbours
		var sb strings.Builder
		for n := 1 + g.next()%3; n > 0; n-- {
			sb.WriteRune(rune(0x2026 + int(g.next()%6)))
		}
		return sb.String()
	default: // the classes side by side, so runs start and end mid-string
		return plainIDs[int(g.next())%len(plainIDs)] +
			string(escapedBytes[int(g.next())%len(escapedBytes)]) +
			string(rune(0x2026+int(g.next()%6))) + string([]byte{g.next()}) + "z"
	}
}

func (g valueGen) float() float64 {
	sign := 1.0
	if g.next()&1 == 1 {
		sign = -1
	}
	switch g.next() % 8 {
	case 0:
		return math.Copysign(0, sign)
	case 1: // any bit pattern
		f := math.Float64frombits(g.u64())
		if g.finite && f-f != 0 {
			return sign
		}
		return f
	case 2: // one ulp either side of the two format switches
		edge := []float64{1e-6, 1e21}[g.next()&1]
		return sign * []float64{math.Nextafter(edge, 0), edge, math.Nextafter(edge, math.Inf(1))}[g.next()%3]
	case 3: // powers of ten, 1e-30 … 1e29
		return sign * math.Pow10(int(g.next()%60)-30)
	case 4: // a digit or two on a small exponent: e-07 and e-7, e-10 and e-1
		return sign * float64(1+g.next()%99) * math.Pow10(-int(g.next()%14))
	case 5:
		if !g.finite {
			return []float64{math.NaN(), math.Inf(1), math.Inf(-1)}[g.next()%3]
		}
		fallthrough
	default: // what the control plane publishes: rates, stamps, latencies
		return sign * float64(g.u64()%(1<<32)) / 1024
	}
}

func (g valueGen) int() int {
	switch g.next() % 4 {
	case 0:
		return 0
	case 1:
		return int(g.next())
	case 2:
		return -int(g.next()) - 1
	default:
		return int(g.u64())
	}
}

// fill returns a copy of zero — one of everyKind — with every field
// drawn from g. A field of a type the encoders have no helper for fails
// the test rather than going unchecked.
func (g valueGen) fill(t testing.TB, zero Event) Event {
	v := reflect.New(reflect.TypeOf(zero)).Elem()
	for i := 0; i < v.NumField(); i++ {
		switch f := v.Field(i); f.Kind() {
		case reflect.String:
			f.SetString(g.str())
		case reflect.Float64:
			f.SetFloat(g.float())
		case reflect.Int:
			f.SetInt(int64(g.int()))
		case reflect.Bool:
			f.SetBool(g.next()&1 == 1)
		default:
			t.Fatalf("%T.%s: no generator for %s", zero, v.Type().Field(i).Name, f.Kind())
		}
	}
	return v.Interface().(Event)
}

// TestAppendMatchesEncodingJSON is the differential oracle for the
// hand-written encoders: for every kind, appendJSON of a value filled
// with edge-case strings, floats, ints and bools is byte-for-byte what
// json.Marshal makes of the same value from its struct tags.
func TestAppendMatchesEncodingJSON(t *testing.T) {
	covered := map[Kind]bool{}
	for _, ev := range everyKind {
		covered[ev.Kind()] = true
	}
	if len(covered) < kindCount {
		t.Fatalf("everyKind covers %d of %d kinds", len(covered), kindCount)
	}
	rounds := 200_000
	if raceflag.Enabled || testing.Short() {
		rounds = 20_000
	}
	rng := rand.New(rand.NewSource(22))
	g := valueGen{next: func() byte { return byte(rng.Intn(256)) }, finite: true}
	var enc LineEncoder
	var got []byte
	for round := 0; round < rounds; round++ {
		ev := g.fill(t, everyKind[round%len(everyKind)])
		want, err := json.Marshal(ev)
		if err != nil {
			t.Fatalf("round %d: json.Marshal(%#v): %v", round, ev, err)
		}
		if got = ev.appendJSON(&enc, got[:0]); !bytes.Equal(got, want) {
			t.Fatalf("round %d: %#v\nappendJSON   %s\njson.Marshal %s", round, ev, got, want)
		}
	}
}

// TestLineLenMatchesAppendLine holds the sizing pass to the encoder:
// over WireDelivery values filled with hostile strings (escaped bytes,
// invalid UTF-8, the line separators), negative and huge ints, sequence
// numbers of every width and clock readings in both exponent ranges,
// LineLen is the length of the line AppendLine appends, each with its own
// memo, whose hits and misses must not matter either.
func TestLineLenMatchesAppendLine(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	g := valueGen{next: func() byte { return byte(rng.Intn(256)) }, finite: true}
	var sizer, enc LineEncoder
	var line []byte
	for round := 0; round < 50_000; round++ {
		ev := g.fill(t, WireDelivery{}).(WireDelivery)
		seq := g.u64() >> (g.next() % 64)
		at := g.float()
		if g.next()%2 == 0 {
			at = math.Float64frombits(enc.tBits) // a memo hit
		}
		want := LineLen(&sizer, seq, at, &ev)
		var err error
		if line, err = AppendLine(&enc, line[:0], seq, at, ev); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if len(line) != want {
			t.Fatalf("round %d: LineLen %d, AppendLine made %d bytes: %s", round, want, len(line), line)
		}
	}
}

// recordBoth feeds one record stream to a Recorder and to the reference
// and returns both outputs and latched errors.
func recordBoth(recs []Record) (got, want []byte, gotErr, wantErr error) {
	var out, ref bytes.Buffer
	r := &Recorder{w: &out}
	rr := &referenceRecorder{enc: json.NewEncoder(&ref)}
	for _, rec := range recs {
		r.observe(rec)
		rr.observe(rec)
	}
	return out.Bytes(), ref.Bytes(), r.Err(), rr.err
}

func requireSameTrace(t *testing.T, recs []Record) {
	t.Helper()
	got, want, gotErr, wantErr := recordBoth(recs)
	if !bytes.Equal(got, want) {
		t.Fatalf("trace differs from the reference\n--- got ---\n%s--- want ---\n%s", got, want)
	}
	if (gotErr == nil) != (wantErr == nil) || gotErr != nil && gotErr.Error() != wantErr.Error() {
		t.Fatalf("Err() = %v, the reference latched %v", gotErr, wantErr)
	}
}

// FuzzRecorderMatchesReference drives whole record streams — clock
// readings that repeat, step and go non-finite, sequence numbers that
// occasionally jump, payloads of every kind — through the Recorder and
// the reflective reference and requires the same bytes and the same
// latched error from both.
func FuzzRecorderMatchesReference(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("a frozen clock: every record repeats the reading before it"))
	f.Add(bytes.Repeat([]byte{30, 2, 1, 7, 1, 4, 1, 2, 3, 9}, 12)) // wire-delivery on a stepping clock
	f.Add(bytes.Repeat([]byte{11, 3, 0xff, 0xf8, 0, 0, 0, 0, 0, 1}, 4))
	f.Add(bytes.Repeat([]byte{23, 0, 0, 0, 1, 1, 5, 0}, 8)) // hold-reclaimed, Conn empty and not
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 8; i++ {
		seed := make([]byte, 64+rng.Intn(192))
		rng.Read(seed)
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		g := valueGen{next: func() byte {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return b
		}}
		recs := genRecords(t, g, func() bool { return len(data) > 0 })
		requireSameTrace(t, recs)
	})
}

// genRecords draws a record stream from g while more reports input
// left: clock readings that repeat, step and go non-finite, sequence
// numbers that occasionally jump, payloads of every kind.
func genRecords(t testing.TB, g valueGen, more func() bool) []Record {
	var recs []Record
	seq, now := uint64(g.next()), 0.0
	for more() && len(recs) < 64 {
		seq++
		switch g.next() % 16 {
		case 0, 1, 2, 3, 4, 5, 6, 7: // the reading before, as inside one des event
		case 8, 9, 10, 11:
			now += float64(g.next()) / 128
		case 12:
			now = math.Nextafter(now, math.Inf(1))
		case 13:
			now = -now // 0 and -0 compare equal and print differently
		case 14:
			now = g.float()
		default:
			seq += uint64(g.next() % 3) // usually a gap, for the audit
		}
		zero := everyKind[int(g.next())%len(everyKind)]
		recs = append(recs, Record{Seq: seq, Time: now, Event: g.fill(t, zero)})
	}
	return recs
}

// typedRoute is one kind's unboxed route, at the payload's concrete
// type: record as Pub calls it, and Pub itself.
type typedRoute struct {
	record func(*Recorder, Record)
	pub    func(*Bus, Event)
}

func typedAs[T Event]() typedRoute {
	return typedRoute{
		record: func(r *Recorder, rec Record) { record(r, rec.Seq, rec.Time, rec.Event.(T)) },
		pub:    func(b *Bus, ev Event) { Pub(b, ev.(T)) },
	}
}

var typed = map[Kind]typedRoute{
	kindConnectionRequested: typedAs[ConnectionRequested](),
	kindConnectionAdmitted:  typedAs[ConnectionAdmitted](),
	kindConnectionBlocked:   typedAs[ConnectionBlocked](),
	kindConnectionClosed:    typedAs[ConnectionClosed](),
	KindAdmissionDecision:   typedAs[AdmissionDecision](),
	kindHandoffAttempt:      typedAs[HandoffAttempt](),
	KindHandoffOutcome:      typedAs[HandoffOutcome](),
	KindHandoffLatency:      typedAs[HandoffLatency](),
	kindPoolClaim:           typedAs[PoolClaim](),
	kindAdvanceReservation:  typedAs[AdvanceReservation](),
	kindPolicyReservation:   typedAs[PolicyReservation](),
	kindBandwidthChange:     typedAs[BandwidthChange](),
	KindAdaptationRound:     typedAs[AdaptationRound](),
	KindMaxminConverged:     typedAs[MaxminConverged](),
	kindCapacityChange:      typedAs[CapacityChange](),
	kindSignalHold:          typedAs[SignalHold](),
	KindSignalCommit:        typedAs[SignalCommit](),
	KindSignalAbort:         typedAs[SignalAbort](),
	kindFlowStarted:         typedAs[FlowStarted](),
	kindFlowStopped:         typedAs[FlowStopped](),
	kindFaultMessage:        typedAs[FaultMessage](),
	KindFaultComponent:      typedAs[FaultComponent](),
	KindControlRetransmit:   typedAs[ControlRetransmit](),
	kindHoldReclaimed:       typedAs[HoldReclaimed](),
	kindReadvertise:         typedAs[Readvertise](),
	kindInvariantViolation:  typedAs[InvariantViolation](),
	kindOverloadStage:       typedAs[OverloadStage](),
	kindSetupShed:           typedAs[SetupShed](),
	kindDegradeCascade:      typedAs[DegradeCascade](),
	kindBreakerState:        typedAs[BreakerState](),
	kindWireDelivery:        typedAs[WireDelivery](),
}

// replayClock reads out a record stream's clock readings, one per Now.
type replayClock struct {
	recs []Record
	next int
}

func (c *replayClock) Now() float64 {
	c.next++
	return c.recs[c.next-1].Time
}

// TestTypedRecordMatchesObserve holds Pub's unboxed route to the boxed
// one: every kind in everyKind, in generated streams with repeated and
// non-finite clock readings and sequence gaps, recorded once through
// record instantiated at its concrete type and once through observe,
// must give the same bytes and latch the same sequence-break and
// unsupported-value errors. The same stream published with Pub on a bus
// whose only listener is the recorder (the unboxed route) and on one
// with a second catch-all subscriber (the boxed dispatch) must record
// the same bytes.
func TestTypedRecordMatchesObserve(t *testing.T) {
	for _, ev := range everyKind {
		if typed[ev.Kind()].record == nil {
			t.Fatalf("no typed route for %s", ev.Kind())
		}
	}
	rng := rand.New(rand.NewSource(27))
	g := valueGen{next: func() byte { return byte(rng.Intn(256)) }}
	seqErrs, valueErrs := 0, 0
	for stream := 0; stream < 2000; stream++ {
		recs := genRecords(t, g, func() bool { return true })
		var typedOut, boxedOut bytes.Buffer
		typedRec, boxed := &Recorder{w: &typedOut}, &Recorder{w: &boxedOut}
		for _, rec := range recs {
			typed[rec.Event.Kind()].record(typedRec, rec)
			boxed.observe(rec)
		}
		if !bytes.Equal(typedOut.Bytes(), boxedOut.Bytes()) {
			t.Fatalf("stream %d: typed route wrote\n%s\nboxed route wrote\n%s", stream, typedOut.Bytes(), boxedOut.Bytes())
		}
		if te, be := typedRec.Err(), boxed.Err(); (te == nil) != (be == nil) || te != nil && te.Error() != be.Error() {
			t.Fatalf("stream %d: typed route latched %v, boxed %v", stream, te, be)
		}

		var soleOut, sharedOut bytes.Buffer
		sole, shared := New(&replayClock{recs: recs}), New(&replayClock{recs: recs})
		soleRec, sharedRec := AttachRecorder(sole, &soleOut), AttachRecorder(shared, &sharedOut)
		heard := 0
		shared.Subscribe(func(Record) { heard++ })
		for _, rec := range recs {
			typed[rec.Event.Kind()].pub(sole, rec.Event)
			typed[rec.Event.Kind()].pub(shared, rec.Event)
		}
		if heard != len(recs) {
			t.Fatalf("stream %d: the second subscriber heard %d of %d events", stream, heard, len(recs))
		}
		if !bytes.Equal(soleOut.Bytes(), sharedOut.Bytes()) || (soleRec.Err() == nil) != (sharedRec.Err() == nil) {
			t.Fatalf("stream %d: Pub to a recorder-only bus wrote\n%s(%v)\nwith a second subscriber\n%s(%v)",
				stream, soleOut.Bytes(), soleRec.Err(), sharedOut.Bytes(), sharedRec.Err())
		}
		if err := boxed.Err(); err != nil && strings.Contains(err.Error(), "sequence broken") {
			seqErrs++
		} else if err != nil {
			valueErrs++
		}
	}
	if seqErrs == 0 || valueErrs == 0 {
		t.Fatalf("%d sequence-break and %d unsupported-value streams: the comparison missed an error path", seqErrs, valueErrs)
	}
}

// TestRecorderRejectsNonFinite pins what happens to a value JSON cannot
// spell, in the timestamp or in a payload: the error is latched with the
// reference's text, not one byte of that record is written, and later
// records are suppressed.
func TestRecorderRejectsNonFinite(t *testing.T) {
	fine := Record{Seq: 1, Time: 1, Event: BandwidthChange{Conn: "c", Bandwidth: 64e3}}
	after := Record{Seq: 3, Time: 1, Event: ConnectionClosed{Conn: "c", Portable: "p"}}
	for name, bad := range map[string]Record{
		"NaN t":        {Seq: 2, Time: math.NaN(), Event: fine.Event},
		"+Inf payload": {Seq: 2, Time: 1, Event: BandwidthChange{Conn: "c", Bandwidth: math.Inf(1)}},
		"-Inf omitempty payload": {Seq: 2, Time: 1,
			Event: FaultMessage{Proto: "signal", Action: "delay", Conn: "c", Delay: math.Inf(-1)}},
		"NaN t ahead of a -Inf payload": {Seq: 2, Time: math.NaN(), Event: CapacityChange{Link: "l", Capacity: math.Inf(-1)}},
	} {
		t.Run(name, func(t *testing.T) {
			w := &countingWriter{}
			r := &Recorder{w: w}
			r.observe(fine)
			if r.Err() != nil || w.writes != 1 {
				t.Fatalf("healthy record: %d writes, Err() = %v", w.writes, r.Err())
			}
			held := w.bytes
			r.observe(bad)
			if err := r.Err(); err == nil || !strings.Contains(err.Error(), "trace write") || !strings.Contains(err.Error(), "unsupported value") {
				t.Fatalf("Err() = %v, want a trace write error naming the unsupported value", err)
			}
			r.observe(after)
			if w.writes != 1 || w.bytes != held {
				t.Fatalf("sink saw %d writes and %d bytes after the bad record, want 1 and %d", w.writes, w.bytes, held)
			}
			requireSameTrace(t, []Record{fine, bad, after})
		})
	}
}

type countingWriter struct{ writes, bytes int }

func (w *countingWriter) Write(p []byte) (int, error) {
	w.writes++
	w.bytes += len(p)
	return len(p), nil
}

// TestTimestampMemo pins the clock-reading memo's key: the bits of the
// reading, not its value. A first record at t = 0 (the bits a zero
// Recorder holds) is formatted, not read from the empty memo; an equal
// reading reuses the text without re-formatting it; one ulp up, and the
// step from 0 to -0, which == cannot see, re-format.
func TestTimestampMemo(t *testing.T) {
	ev := SignalHold{Conn: "c", Link: "l"}
	negZero := math.Copysign(0, -1)
	var recs []Record
	var want strings.Builder
	for i, c := range []struct {
		t    float64
		text string
	}{
		{0, "0"}, {0, "0"}, {negZero, "-0"}, {negZero, "-0"}, {0, "0"},
		{1.5, "1.5"}, {1.5, "1.5"}, {math.Nextafter(1.5, 2), "1.5000000000000002"}, {1.5, "1.5"},
		{1e-7, "1e-7"}, {1e-7, "1e-7"}, {1e21, "1e+21"},
	} {
		recs = append(recs, Record{Seq: uint64(i + 1), Time: c.t, Event: ev})
		fmt.Fprintf(&want, `{"seq":%d,"t":%s,"type":"signal-hold","ev":{"conn":"c","link":"l"}}`+"\n", i+1, c.text)
	}
	got, _, err, _ := recordBoth(recs)
	if err != nil || string(got) != want.String() {
		t.Fatalf("Err() = %v\n--- got ---\n%s--- want ---\n%s", err, got, &want)
	}
	requireSameTrace(t, recs)

	// Reuse, seen from the inside: with the remembered text overwritten,
	// an equal reading must print the overwritten text and the next
	// distinct reading must not.
	var out bytes.Buffer
	r := &Recorder{w: &out}
	r.observe(Record{Seq: 1, Time: 2.5, Event: ev})
	copy(r.enc.tText[:], "9.9")
	r.observe(Record{Seq: 2, Time: 2.5, Event: ev})
	r.observe(Record{Seq: 3, Time: 2.75, Event: ev})
	lines := strings.Split(out.String(), "\n")
	if !strings.Contains(lines[1], `"t":9.9,`) || !strings.Contains(lines[2], `"t":2.75,`) {
		t.Fatalf("memo not reused on equal bits, or not refreshed on new ones:\n%s", out.String())
	}
}

// TestRecorderObserveAllocFree pins the recorder's own budget: handed an
// already-boxed record and a warm sink it allocates nothing, whether the
// clock reading repeats (the memo hits) or moves every record (it never
// does). What a recorded publish still allocates is Pub's box.
func TestRecorderObserveAllocFree(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("race detector adds bookkeeping allocations")
	}
	for name, step := range map[string]float64{"frozen": 0, "moving": 0.0137} {
		var sink TraceBuffer
		r := &Recorder{w: &sink}
		rec := Record{Time: 12.5, Event: wireDeliverySample}
		observe := func() {
			rec.Seq++
			rec.Time += step
			r.observe(rec)
		}
		observe() // grow the scratch line and the first chunk
		if got := testing.AllocsPerRun(1000, observe); got != 0 {
			t.Errorf("clock %s: observe allocates %v/op, want 0", name, got)
		}
		if r.Err() != nil {
			t.Fatal(r.Err())
		}
	}
}

// TestLineEncoderMemoMatchesFresh holds a long-lived encoder, whose memo
// fills, hits and evicts, to a fresh one per line: every line must come
// out with the same bytes and the same error. The stream is built on the
// memo's hazards — substrings that share a data pointer and differ in
// length, equal text at different addresses, three strings to one string
// set and to one head slot, more floats than one float set holds,
// strings longer than an entry or whose escapes are, the generator's
// hostile strings, 0 and -0, and NaN and ±Inf in the clock and the
// payload. LineLen, sizing every WireDelivery line on an encoder of its
// own and on the one that renders it, must agree with the rendered
// length.
func TestLineEncoderMemoMatchesFresh(t *testing.T) {
	rng := rand.New(rand.NewSource(48))
	g := valueGen{next: func() byte { return byte(rng.Intn(256)) }}
	strs, heads, floats := memoHazards(g)
	var recs []Record
	pick := func(pool []string) string { return pool[rng.Intn(len(pool))] }
	for i := 0; i < 20_000; i++ {
		rec := Record{Seq: uint64(i + 1), Time: floats[rng.Intn(len(floats))]}
		if i%5 != 0 {
			rec.Time = recs[i-1].Time // the reading before, mostly
		}
		switch i % 4 {
		case 0: // the same strings back to back, as a node's lines are
			ev := WireDelivery{Node: pick(heads), Proto: pick(heads), Type: pick(heads), Conn: pick(strs), Hop: i % 9, Bytes: i}
			rec.Event = ev
			if i > 0 && rng.Intn(2) == 0 {
				if prev, ok := recs[i-1].Event.(WireDelivery); ok {
					ev.Node, ev.Proto, ev.Type = prev.Node, prev.Proto, prev.Type
					rec.Event = ev
				}
			}
		case 1:
			rec.Event = AdaptationRound{Conn: pick(strs), Round: i, Stamp: floats[rng.Intn(len(floats))]}
		default: // any kind, its strings and floats drawn from the pools
			v := reflect.New(reflect.TypeOf(everyKind[rng.Intn(len(everyKind))])).Elem()
			for f := 0; f < v.NumField(); f++ {
				switch fv := v.Field(f); fv.Kind() {
				case reflect.String:
					fv.SetString(pick(strs))
				case reflect.Float64:
					fv.SetFloat(floats[rng.Intn(len(floats))])
				case reflect.Int:
					fv.SetInt(int64(rng.Intn(1000)))
				case reflect.Bool:
					fv.SetBool(rng.Intn(2) == 0)
				}
			}
			rec.Event = v.Interface().(Event)
		}
		recs = append(recs, rec)
	}

	var long, sizer, both LineEncoder
	var got, want []byte
	fails := 0
	for i, rec := range recs {
		var err, wantErr error
		got, err = AppendLine(&long, got[:0], rec.Seq, rec.Time, rec.Event)
		want, wantErr = AppendLine(new(LineEncoder), want[:0], rec.Seq, rec.Time, rec.Event)
		if !bytes.Equal(got, want) || (err == nil) != (wantErr == nil) || err != nil && err.Error() != wantErr.Error() {
			t.Fatalf("line %d: %#v at t=%v\nlong-lived %q (%v)\nfresh      %q (%v)", i, rec.Event, rec.Time, got, err, want, wantErr)
		}
		if wantErr != nil {
			fails++
		} else if msg := memoHolds(&long, rec.Event); msg != "" {
			t.Fatalf("line %d: %#v: %s", i, rec.Event, msg)
		}
		wd, ok := rec.Event.(WireDelivery)
		if !ok || wantErr != nil {
			continue
		}
		sized := LineLen(&sizer, rec.Seq, rec.Time, &wd)
		sizedBoth := LineLen(&both, rec.Seq, rec.Time, &wd)
		line, err := AppendLine(&both, nil, rec.Seq, rec.Time, wd)
		if sized != len(want) || sizedBoth != len(want) || err != nil || !bytes.Equal(line, want) {
			t.Fatalf("line %d: %#v: LineLen %d and %d, rendered %q (%v), want %d bytes %q",
				i, wd, sized, sizedBoth, line, err, len(want), want)
		}
	}
	if fails == 0 || fails == len(recs) {
		t.Fatalf("%d of %d lines failed: the stream missed the error path or the memo", fails, len(recs))
	}
}

// memoHazards returns the test's pools: payload strings, the strings
// WireDelivery's head is drawn from, and floats for the clock and the
// payload.
func memoHazards(g valueGen) (strs, heads []string, floats []float64) {
	base := strings.Repeat("ap-off-1<->p07:3 ", 4)
	for n := 1; n <= len(base); n += 3 { // one data pointer, many lengths
		strs = append(strs, base[:n])
	}
	for _, s := range []string{"p07:3", "maxmin", base[:20]} { // one text, three addresses
		strs = append(strs, s, strings.Clone(s), strings.Clone(s))
	}
	for _, n := range []int{maxMemoLen - 1, maxMemoLen, maxMemoLen + 1, 2 * maxMemoLen} {
		strs = append(strs, strings.Repeat("x", n), strings.Repeat("<", n))
	}
	strs = append(strs, strings.Repeat("\x01", maxMemoLen/6+1), "  ", "")
	for i := 0; i < 32; i++ {
		strs = append(strs, g.str())
	}
	// Three strings to one set, and three message types to one head slot:
	// distinct addresses cut from one backing array, grouped by slot.
	backing := strings.Repeat("signal-setup/advertise/", 64)
	strs = append(strs, sameSlot(backing, 6, quotedSetBits, 3)...)
	heads = append(heads, sameSlot(backing, 9, headSlotBits, 3)...)
	heads = append(heads, "ap-off-1", "maxmin", "signal", strings.Repeat("node-", 12), base[:3], base[:5])

	floats = []float64{0, math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1), 1e-7, 1e21, 12.5, 64e3}
	ways := len(floatSet{}.bits)
	for v, taken := 1.0, map[uint64]int{}; len(floats) < 9+ways+2; v += 0.125 { // more than a float set holds
		s := slot(math.Float64bits(v), floatSetBits)
		if taken[s]++; taken[s] == ways+2 {
			for w := 1.0; w <= v; w += 0.125 {
				if slot(math.Float64bits(w), floatSetBits) == s {
					floats = append(floats, w)
				}
			}
		}
	}
	for i := 0; i < 16; i++ {
		floats = append(floats, g.float())
	}
	return strs, heads, floats
}

// memoHolds reports what of a just-rendered AdaptationRound or
// WireDelivery e's memo does not hold: the head, the last string if it
// fits an entry, and the payload float must each sit in their slot under
// their own key, with their own text. A memo that never keeps what it formatted renders the right bytes
// too, so the comparison above cannot see it; this can.
func memoHolds(e *LineEncoder, ev Event) string {
	var strs []string
	switch ev := ev.(type) {
	case AdaptationRound:
		bits, set, held := math.Float64bits(ev.Stamp), e.floats[slot(math.Float64bits(ev.Stamp), floatSetBits)], false
		for w, b := range set.bits {
			if b == bits && set.n[w] != 0 {
				held = true
				if want := appendFloat(nil, ev.Stamp); string(set.text[w][:set.n[w]]) != string(want) {
					return fmt.Sprintf("float entry for %v holds %q, want %q", ev.Stamp, set.text[w][:set.n[w]], want)
				}
			}
		}
		if !held {
			return fmt.Sprintf("no float entry holds %v", ev.Stamp)
		}
		strs = []string{ev.Conn}
	case WireDelivery:
		head := appendString(append(appendString(append(appendString([]byte(`{"node":`), ev.Node),
			`,"proto":`...), ev.Proto), `,"msg":`...), ev.Type)
		m := e.heads[slot(uint64(uintptr(unsafe.Pointer(unsafe.StringData(ev.Type)))), headSlotBits)]
		if len(head) <= len(m.text) && (!m.node.is(ev.Node) || !m.proto.is(ev.Proto) || !m.msg.is(ev.Type) || string(m.text[:m.n]) != string(head)) {
			return fmt.Sprintf("head slot holds %q, want %q", m.text[:m.n], head)
		}
		strs = []string{ev.Conn}
	}
	for _, s := range strs { // the line's last string: an earlier one may be evicted by it
		if len(s) == 0 || len(s) > maxMemoLen {
			continue
		}
		set, held := e.quoted[slot(uint64(uintptr(unsafe.Pointer(unsafe.StringData(s)))), quotedSetBits)], false
		for _, m := range set.ways {
			if m.key.is(s) {
				held = true
				if want := appendString(nil, s); int(m.q) != len(want) || m.ok && string(m.text[:m.q]) != string(want) {
					return fmt.Sprintf("entry for %q holds %d %q, want %q", s, m.q, m.text[:m.q], want)
				}
			}
		}
		if !held {
			return fmt.Sprintf("no entry holds %q", s)
		}
	}
	return ""
}

// sameSlot returns n substrings of backing, each length long, whose data
// pointers share one slot of a 1<<bits table.
func sameSlot(backing string, length int, bits uint, n int) []string {
	bySlot := map[uint64][]string{}
	for i := 0; i+length <= len(backing); i++ {
		s := backing[i : i+length]
		k := slot(uint64(uintptr(unsafe.Pointer(unsafe.StringData(s)))), bits)
		if bySlot[k] = append(bySlot[k], s); len(bySlot[k]) == n {
			return bySlot[k]
		}
	}
	panic("no slot holds enough substrings")
}
