package wire

import (
	"bytes"
	"testing"
)

// FuzzWireDecode is the codec's robustness target: Decode must never
// panic on arbitrary bytes, must never hand back data larger than the
// frame that claimed it (no length-prefix-driven over-allocation), and
// must be canonical — any frame it accepts re-encodes to exactly the
// same bytes. DecodeFrame, Decode and referenceDecode (the copying
// decoder DecodeFrame replaced) must agree on every input: the same
// error text, or the same seq and the same fields.
func FuzzWireDecode(f *testing.F) {
	for _, m := range everyMessage() {
		frame, err := Encode(9, m)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(frame)
	}
	f.Add([]byte{})
	f.Add([]byte{0, 6, version, byte(TShutdown), 0, 0, 0, 1})
	f.Add(bytes.Repeat([]byte{0xFF}, 64))
	// Trailing body bytes behind a consistent prefix, and hostile string
	// lengths: past the frame, and past maxString on a frame that holds it.
	f.Add([]byte{0, 7, version, byte(TShutdown), 0, 0, 0, 1, 0xAB})
	f.Add([]byte{0, 10, version, byte(tHello), 0, 0, 0, 1, 0x01, 0xF4, 'a', 'b'})
	f.Add(append([]byte{0x01, 0x08, version, byte(tHello), 0, 0, 0, 1, 0x01, 0x00}, make([]byte, 256)...))
	f.Fuzz(func(t *testing.T, data []byte) {
		m, seq, err := Decode(data)
		refM, refSeq, refErr := referenceDecode(data)
		var fr Frame
		frErr := DecodeFrame(data, &fr)
		if (err == nil) != (refErr == nil) || (frErr == nil) != (refErr == nil) ||
			refErr != nil && (err.Error() != refErr.Error() || frErr.Error() != refErr.Error()) {
			t.Fatalf("errors disagree on %x:\n Decode          %v\n DecodeFrame     %v\n referenceDecode %v", data, err, frErr, refErr)
		}
		if err != nil {
			return
		}
		if seq != refSeq || !sameFrame(fr, frameOf(refSeq, refM)) || !sameFrame(frameOf(seq, m), frameOf(refSeq, refM)) {
			t.Fatalf("decoders disagree on %x:\n Decode          %d %#v\n DecodeFrame     %+v\n referenceDecode %d %#v", data, seq, m, fr, refSeq, refM)
		}
		// Accepted frames decode only strings the frame physically
		// carried: total decoded string bytes can never exceed the input.
		budget := len(data)
		for _, s := range decodedStrings(m) {
			if len(s) > budget {
				t.Fatalf("decoded %d string bytes from a %d-byte frame", len(s), len(data))
			}
		}
		// Canonical: re-encoding reproduces the input byte-for-byte.
		again, err := Encode(seq, m)
		if err != nil {
			t.Fatalf("re-encode of accepted frame failed: %v", err)
		}
		if !bytes.Equal(again, data) {
			t.Fatalf("codec not canonical:\n in  %x\n out %x", data, again)
		}
	})
}

func decodedStrings(m Message) []string {
	switch v := m.(type) {
	case Hello:
		return []string{v.Node}
	case SignalSetup:
		return []string{v.Conn}
	case SignalCommit:
		return []string{v.Conn}
	case SignalAbort:
		return []string{v.Conn, v.Reason}
	case Advertise:
		return []string{v.Conn}
	case Update:
		return []string{v.Conn}
	case LeaseRenew:
		return []string{v.Conn}
	case Resync:
		return []string{v.Conn}
	default:
		return nil
	}
}
