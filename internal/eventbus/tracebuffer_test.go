package eventbus

import (
	"bytes"
	"runtime"
	"testing"

	"armnet/internal/raceflag"
)

// checkChunks asserts the sink's shape: no chunk above the cap, every
// chunk but the last full, and Len equal to the bytes held.
func checkChunks(t *testing.T, b *TraceBuffer) {
	t.Helper()
	total := 0
	for i, c := range b.chunks {
		if cap(c) > maxTraceChunk {
			t.Fatalf("chunk %d has capacity %d, cap is %d", i, cap(c), maxTraceChunk)
		}
		if i < len(b.chunks)-1 && len(c) != cap(c) {
			t.Fatalf("chunk %d is %d of %d bytes full with chunks after it", i, len(c), cap(c))
		}
		total += len(c)
	}
	if total != b.Len() {
		t.Fatalf("chunks hold %d bytes, Len() = %d", total, b.Len())
	}
}

// TestTraceBufferRoundTrip interleaves small writes with ones larger
// than a whole chunk and reads everything back, then does it again after
// a Reset.
func TestTraceBufferRoundTrip(t *testing.T) {
	var b TraceBuffer
	if b.Len() != 0 || len(b.Bytes()) != 0 {
		t.Fatalf("zero value holds %d bytes", b.Len())
	}
	for round := 0; round < 2; round++ {
		var want bytes.Buffer
		fill := byte(round)
		for _, size := range []int{1, 100, 0, minTraceChunk, 7, maxTraceChunk + maxTraceChunk/2, 100, 3 * maxTraceChunk, 1} {
			p := make([]byte, size)
			for i := range p {
				fill++
				p[i] = fill
			}
			n, err := b.Write(p)
			if n != size || err != nil {
				t.Fatalf("Write(%d bytes) = %d, %v", size, n, err)
			}
			want.Write(p)
			checkChunks(t, &b)
		}
		if b.Len() != want.Len() {
			t.Fatalf("round %d: Len() = %d, want %d", round, b.Len(), want.Len())
		}
		if !bytes.Equal(b.Bytes(), want.Bytes()) {
			t.Fatalf("round %d: Bytes() differs from what was written", round)
		}
		b.Reset()
		if b.Len() != 0 || len(b.Bytes()) != 0 {
			t.Fatalf("round %d: %d bytes left after Reset", round, b.Len())
		}
	}
}

// TestTraceBufferNeverCopiesHistory pins the reason the sink exists: 8 MiB
// written as 100-byte lines allocates barely more than 8 MiB. A doubling
// buffer allocates at least twice that, re-copying the trace as it grows.
func TestTraceBufferNeverCopiesHistory(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("race detector adds bookkeeping allocations")
	}
	const total = 8 << 20
	line := bytes.Repeat([]byte("x"), 100)
	var b TraceBuffer
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for b.Len() < total {
		b.Write(line)
	}
	runtime.ReadMemStats(&after)
	if grew := after.TotalAlloc - before.TotalAlloc; grew >= total*5/4 {
		t.Fatalf("writing %d bytes allocated %d, want under %d", b.Len(), grew, total*5/4)
	}
	checkChunks(t, &b)
}
