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
	var got []byte
	for round := 0; round < rounds; round++ {
		ev := g.fill(t, everyKind[round%len(everyKind)])
		want, err := json.Marshal(ev)
		if err != nil {
			t.Fatalf("round %d: json.Marshal(%#v): %v", round, ev, err)
		}
		if got = ev.appendJSON(got[:0]); !bytes.Equal(got, want) {
			t.Fatalf("round %d: %#v\nappendJSON   %s\njson.Marshal %s", round, ev, got, want)
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
	KindConnectionRequested: typedAs[ConnectionRequested](),
	KindConnectionAdmitted:  typedAs[ConnectionAdmitted](),
	KindConnectionBlocked:   typedAs[ConnectionBlocked](),
	KindConnectionClosed:    typedAs[ConnectionClosed](),
	KindAdmissionDecision:   typedAs[AdmissionDecision](),
	KindHandoffAttempt:      typedAs[HandoffAttempt](),
	KindHandoffOutcome:      typedAs[HandoffOutcome](),
	KindHandoffLatency:      typedAs[HandoffLatency](),
	KindPoolClaim:           typedAs[PoolClaim](),
	KindAdvanceReservation:  typedAs[AdvanceReservation](),
	KindPolicyReservation:   typedAs[PolicyReservation](),
	KindBandwidthChange:     typedAs[BandwidthChange](),
	KindAdaptationRound:     typedAs[AdaptationRound](),
	KindMaxminConverged:     typedAs[MaxminConverged](),
	KindCapacityChange:      typedAs[CapacityChange](),
	KindSignalHold:          typedAs[SignalHold](),
	KindSignalCommit:        typedAs[SignalCommit](),
	KindSignalAbort:         typedAs[SignalAbort](),
	KindFlowStarted:         typedAs[FlowStarted](),
	KindFlowStopped:         typedAs[FlowStopped](),
	KindFaultMessage:        typedAs[FaultMessage](),
	KindFaultComponent:      typedAs[FaultComponent](),
	KindControlRetransmit:   typedAs[ControlRetransmit](),
	KindHoldReclaimed:       typedAs[HoldReclaimed](),
	KindReadvertise:         typedAs[Readvertise](),
	KindInvariantViolation:  typedAs[InvariantViolation](),
	KindOverloadStage:       typedAs[OverloadStage](),
	KindSetupShed:           typedAs[SetupShed](),
	KindDegradeCascade:      typedAs[DegradeCascade](),
	KindBreakerState:        typedAs[BreakerState](),
	KindWireDelivery:        typedAs[WireDelivery](),
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
	copy(r.tText, "9.9")
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
