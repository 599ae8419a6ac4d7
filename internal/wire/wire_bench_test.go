package wire

import (
	"testing"

	"armnet/internal/raceflag"
)

// The codec sits on the live hot path: every protocol hop crosses it
// twice (encode at the controller, decode at the node) plus the ack
// pair. The benchmarks pin its per-message cost; AppendFrame with a
// reused buffer is the zero-allocation path the transport uses.

var benchMsg = Advertise{Conn: "portable-17:2", Hop: 5, Round: 4, Stamp: 1.2345e6}

func BenchmarkWireEncode(b *testing.B) {
	buf := make([]byte, 0, MaxFrame)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var err error
		buf, err = AppendFrame(buf[:0], uint32(i), benchMsg)
		if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkWireDecode(b *testing.B) {
	frame, err := Encode(7, benchMsg)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, err := Decode(frame); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWireDecodeFrame is the receiver's path: the same frame into
// one reused Frame, strings left as views.
func BenchmarkWireDecodeFrame(b *testing.B) {
	frame, err := Encode(7, benchMsg)
	if err != nil {
		b.Fatal(err)
	}
	var f Frame
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := DecodeFrame(frame, &f); err != nil {
			b.Fatal(err)
		}
	}
}

// TestEncodeAllocFree pins AppendFrame's zero-allocation contract with
// a warm buffer.
func TestEncodeAllocFree(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation counts differ under the race detector")
	}
	buf := make([]byte, 0, MaxFrame)
	var m Message = benchMsg // box once; the transport holds Messages boxed
	allocs := testing.AllocsPerRun(200, func() {
		var err error
		buf, err = AppendFrame(buf[:0], 1, m)
		if err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("AppendFrame with warm buffer: %v allocs/op, want 0", allocs)
	}
}

// TestAppendFrameDoesNotBoxCaller is the caller's side of the same
// contract: m must not escape AppendFrame, or every call site that
// passes a concrete message pays a heap box for it — which the test
// above, boxing once up front, cannot see. An AckSeq below 256 would
// not show it either: Go boxes small integers from a static table.
func TestAppendFrameDoesNotBoxCaller(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation counts differ under the race detector")
	}
	buf := make([]byte, 0, MaxFrame)
	for name, encode := range map[string]func() ([]byte, error){
		"ack":       func() ([]byte, error) { return AppendFrame(buf[:0], 1, Ack{AckSeq: 1 << 20}) },
		"advertise": func() ([]byte, error) { return AppendFrame(buf[:0], 1, benchMsg) },
	} {
		allocs := testing.AllocsPerRun(200, func() {
			if _, err := encode(); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("AppendFrame(%s by value): %v allocs/op, want 0", name, allocs)
		}
	}
}
