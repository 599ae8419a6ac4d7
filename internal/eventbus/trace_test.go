package eventbus

import (
	"bytes"
	"errors"
	"strings"
	"testing"
)

type stubClock struct{ now float64 }

func (c *stubClock) Now() float64 { return c.now }

type failingWriter struct{ allow int }

func (w *failingWriter) Write(p []byte) (int, error) {
	if w.allow <= 0 {
		return 0, errors.New("no space")
	}
	w.allow--
	return len(p), nil
}

func TestRecorderLatchesWriteError(t *testing.T) {
	bus := New(&stubClock{})
	r := AttachRecorder(bus, &failingWriter{allow: 1})
	bus.Publish(ConnectionRequested{Portable: "p0"})
	if r.Err() != nil {
		t.Fatalf("first write errored: %v", r.Err())
	}
	bus.Publish(ConnectionRequested{Portable: "p1"})
	err := r.Err()
	if err == nil || !strings.Contains(err.Error(), "trace write") {
		t.Fatalf("Err = %v, want wrapped trace write error", err)
	}
	bus.Publish(ConnectionRequested{Portable: "p2"})
	if r.Err() != err {
		t.Fatalf("latched error changed: %v", r.Err())
	}
}

// TestRecorderSeqMonotonicity is the regression test for the recorder's
// stream audit: observed sequence numbers must advance by exactly one.
// The recorder is fed crafted Records directly, since a healthy bus can
// never produce the corruption being tested.
func TestRecorderSeqMonotonicity(t *testing.T) {
	ev := ConnectionRequested{Portable: "p0"}
	cases := []struct {
		name string
		seqs []uint64
		ok   bool
	}{
		{"contiguous", []uint64{1, 2, 3}, true},
		{"late attach", []uint64{7, 8, 9}, true},
		{"gap", []uint64{1, 2, 4}, false},
		{"regression", []uint64{5, 6, 3}, false},
		{"duplicate", []uint64{2, 2}, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var buf bytes.Buffer
			r := &Recorder{w: &buf}
			for _, seq := range tc.seqs {
				r.observe(Record{Seq: seq, Time: 1, Event: ev})
			}
			err := r.Err()
			if tc.ok && err != nil {
				t.Fatalf("unexpected error: %v", err)
			}
			if !tc.ok {
				if err == nil || !strings.Contains(err.Error(), "sequence broken") {
					t.Fatalf("Err = %v, want sequence-broken error", err)
				}
				// The offending record must not have been written.
				if got := strings.Count(buf.String(), "\n"); got != len(tc.seqs)-1 {
					t.Fatalf("wrote %d lines for %d records with a broken tail", got, len(tc.seqs))
				}
			}
		})
	}
}

func TestRecorderOutputShape(t *testing.T) {
	clk := &stubClock{now: 2.5}
	bus := New(clk)
	var buf bytes.Buffer
	r := AttachRecorder(bus, &buf)
	bus.Publish(ConnectionRequested{Portable: "p0"})
	if r.Err() != nil {
		t.Fatal(r.Err())
	}
	want := `{"seq":1,"t":2.5,"type":"connection-requested","ev":{"portable":"p0"}}` + "\n"
	if buf.String() != want {
		t.Fatalf("trace line = %q, want %q", buf.String(), want)
	}
}
