package eventbus

import "bytes"

const (
	minTraceChunk = 4 << 10
	maxTraceChunk = 1 << 20
)

// TraceBuffer is an append-only in-memory sink for a recorder that runs
// for the whole of a long session. It keeps what it is given in chunks
// and never moves a byte once written, so the cost of a Write is bounded
// by its own length: a bytes.Buffer holding a 16 MB live-plane trace
// copies all of it when it doubles, and that one Write then takes tens
// of milliseconds while the wall clock's lock is held. Each new chunk is
// as large as everything written before it, between 4 KiB and 1 MiB, so
// a short trace stays small and a long one wastes at most one chunk.
//
// The zero value is ready to use. Like bytes.Buffer it is not safe for
// concurrent use.
type TraceBuffer struct {
	chunks [][]byte
	n      int
}

// Write appends p; it never fails.
func (b *TraceBuffer) Write(p []byte) (int, error) {
	written := len(p)
	for len(p) > 0 {
		last := len(b.chunks) - 1
		if last < 0 || len(b.chunks[last]) == cap(b.chunks[last]) {
			size := min(max(b.n, minTraceChunk), maxTraceChunk)
			b.chunks = append(b.chunks, make([]byte, 0, size))
			last++
		}
		c := b.chunks[last]
		k := min(len(p), cap(c)-len(c))
		b.chunks[last] = append(c, p[:k]...)
		b.n += k
		p = p[k:]
	}
	return written, nil
}

// Bytes returns the contents as one newly allocated slice, which the
// caller owns.
func (b *TraceBuffer) Bytes() []byte { return bytes.Join(b.chunks, nil) }
