package wire

import (
	"encoding/binary"
	"errors"
	"math"
	"reflect"
	"strings"
	"testing"
)

// everyMessage returns one representative of every message type —
// appended to, the exhaustiveness test below fails if a new Type has no
// entry here.
func everyMessage() []Message {
	return []Message{
		Hello{Node: "west"},
		Ack{AckSeq: 7},
		SignalSetup{Conn: "alice:0", Hop: 3, Bandwidth: 256e3},
		SignalCommit{Conn: "alice:0", Hop: 9, Bandwidth: 1.2e6},
		SignalAbort{Conn: "bob:2", Hop: 1, Reason: "hop-rejected"},
		Advertise{Conn: "carol:1", Hop: 5, Round: 4, Stamp: 987654.321},
		Update{Conn: "dave:3", Hop: 2, Rate: 1.6e6},
		Shutdown{},
		LeaseRenew{Conn: "alice:0", Bandwidth: 256e3, TTL: 4.25},
		Resync{Conn: "dave:3", Bandwidth: 300e3, TTL: 9.5},
	}
}

// TestRoundTripEveryType pins Encode∘Decode = identity for every
// message type, including seq, and that the type table is exhaustive.
func TestRoundTripEveryType(t *testing.T) {
	covered := map[Type]bool{}
	for i, m := range everyMessage() {
		seq := uint32(1000 + i)
		frame, err := Encode(seq, m)
		if err != nil {
			t.Fatalf("Encode(%T): %v", m, err)
		}
		got, gotSeq, err := Decode(frame)
		if err != nil {
			t.Fatalf("Decode(%T): %v", m, err)
		}
		if gotSeq != seq {
			t.Fatalf("%T: seq %d, want %d", m, gotSeq, seq)
		}
		if !reflect.DeepEqual(got, m) {
			t.Fatalf("round trip: got %#v, want %#v", got, m)
		}
		covered[m.WireType()] = true
	}
	for typ := Type(1); int(typ) < typeCount; typ++ {
		if !covered[typ] {
			t.Errorf("no round-trip coverage for %s", typ)
		}
		if strings.HasPrefix(typ.String(), "Type(") {
			t.Errorf("type %d has no name", typ)
		}
	}
}

// TestRoundTripEdgeValues exercises the encoding corners: empty
// strings, maximum-length strings, zero/negative/NaN floats, and the
// extremes of the integer fields.
func TestRoundTripEdgeValues(t *testing.T) {
	long := strings.Repeat("x", maxString)
	msgs := []Message{
		Hello{Node: ""},
		Hello{Node: long},
		SignalAbort{Conn: "", Hop: math.MaxUint16, Reason: long},
		Update{Conn: "c", Hop: 0, Rate: math.Inf(1)},
		Update{Conn: "c", Hop: 0, Rate: -0.0},
		Advertise{Conn: "c", Hop: 0, Round: math.MaxUint16, Stamp: math.SmallestNonzeroFloat64},
		Ack{AckSeq: math.MaxUint32},
		LeaseRenew{Conn: "", Bandwidth: 0, TTL: math.Inf(1)},
		Resync{Conn: long, Bandwidth: -0.0, TTL: 0},
	}
	for _, m := range msgs {
		frame, err := Encode(math.MaxUint32, m)
		if err != nil {
			t.Fatalf("Encode(%#v): %v", m, err)
		}
		got, seq, err := Decode(frame)
		if err != nil {
			t.Fatalf("Decode(%#v): %v", m, err)
		}
		if seq != math.MaxUint32 {
			t.Fatalf("seq = %d", seq)
		}
		if !reflect.DeepEqual(got, m) {
			t.Fatalf("round trip: got %#v, want %#v", got, m)
		}
	}
	// NaN round-trips by bit pattern (DeepEqual rejects NaN == NaN).
	frame, err := Encode(1, Update{Conn: "c", Rate: math.NaN()})
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := Decode(frame)
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsNaN(got.(Update).Rate) {
		t.Fatalf("NaN did not survive: %v", got.(Update).Rate)
	}
}

func TestEncodeRejectsOversizedString(t *testing.T) {
	_, err := Encode(1, Hello{Node: strings.Repeat("x", maxString+1)})
	if !errors.Is(err, errString) {
		t.Fatalf("err = %v, want ErrString", err)
	}
}

// alien satisfies Message from outside the closed set.
type alien struct{}

func (alien) WireType() Type { return TUpdate }

// TestEncodeRejectsForeignMessage pins the closed set from the encode
// side: a nil message, a pointer to a message and a foreign
// implementation are errType naming the offender, and dst comes back
// at its original length.
func TestEncodeRejectsForeignMessage(t *testing.T) {
	for want, m := range map[string]Message{
		"<nil>":       nil,
		"*wire.Hello": &Hello{Node: "west"},
		"wire.alien":  alien{},
	} {
		dst, err := AppendFrame([]byte("kept"), 1, m)
		if !errors.Is(err, errType) || !strings.HasSuffix(err.Error(), ": "+want) {
			t.Errorf("AppendFrame(%s): err = %v, want ErrType naming it", want, err)
		}
		if string(dst) != "kept" {
			t.Errorf("AppendFrame(%s) left dst = %q", want, dst)
		}
	}
}

// TestDecodeMalformed pins the error classes: Decode never panics and
// classifies each corruption.
func TestDecodeMalformed(t *testing.T) {
	good, err := Encode(42, SignalSetup{Conn: "alice:0", Hop: 1, Bandwidth: 1e6})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name  string
		frame []byte
		want  error
	}{
		{"empty", nil, errShort},
		{"header-only-truncated", good[:5], errShort},
		{"body-truncated", good[:len(good)-3], errLength},
		{"trailing", append(append([]byte(nil), good...), 0xFF), errLength},
		{"bad-version", mutate(good, 2, 99), errVersion},
		{"bad-type", mutate(good, 3, 200), errType},
		{"zero-type", mutate(good, 3, 0), errType},
		{"oversized", make([]byte, MaxFrame+1), errTooLong},
	}
	for _, tc := range cases {
		if _, _, err := Decode(tc.frame); !errors.Is(err, tc.want) {
			t.Errorf("%s: err = %v, want %v", tc.name, err, tc.want)
		}
	}

	// A length prefix that lies about the payload (consistent with the
	// slice, inconsistent with the fields) must fail cleanly too.
	short := append([]byte(nil), good[:headerLen+1]...)
	binary.BigEndian.PutUint16(short, uint16(len(short)-2))
	if _, _, err := Decode(short); !errors.Is(err, errShort) {
		t.Errorf("lying prefix: err = %v, want ErrShort", err)
	}

	// A string length claiming more than the remaining bytes must not
	// allocate or succeed.
	hello, _ := Encode(1, Hello{Node: "ab"})
	binary.BigEndian.PutUint16(hello[headerLen:], 500) // claims 500 bytes, has 2
	if _, _, err := Decode(hello); err == nil {
		t.Error("hostile string length decoded successfully")
	}
}

// TestDecodeRejectsTrailingBody pins exact consumption: extra body
// bytes hidden behind a consistent length prefix are an error.
func TestDecodeRejectsTrailingBody(t *testing.T) {
	frame, _ := Encode(1, Shutdown{})
	frame = append(frame, 0xAB)
	binary.BigEndian.PutUint16(frame, uint16(len(frame)-2))
	if _, _, err := Decode(frame); !errors.Is(err, errTrailing) {
		t.Fatalf("err = %v, want ErrTrailing", err)
	}
}

func mutate(frame []byte, at int, v byte) []byte {
	out := append([]byte(nil), frame...)
	out[at] = v
	return out
}
