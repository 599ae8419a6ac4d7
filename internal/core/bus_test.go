package core

import (
	"testing"

	"armnet/internal/eventbus"
	"armnet/internal/qos"
)

// signalLog captures the signaling milestones of async setups in
// publication order.
type signalLog struct {
	recs []eventbus.Record
}

func newSignalLog(bus *eventbus.Bus) *signalLog {
	l := &signalLog{}
	bus.Subscribe(func(r eventbus.Record) { l.recs = append(l.recs, r) },
		eventbus.SignalHold{}.Kind(), eventbus.KindSignalCommit, eventbus.KindSignalAbort)
	return l
}

// TestAsyncSetupEmitsHoldCommitPairs pins the hold/commit contract of the
// signaling plane on the bus: a successful OpenConnectionAsync publishes
// one SignalHold per route hop (tentative holds placed on the forward
// pass) strictly before a single SignalCommit for the same connection,
// and no abort.
func TestAsyncSetupEmitsHoldCommitPairs(t *testing.T) {
	sim, m := newCampus(t, Config{})
	log := newSignalLog(m.Bus)
	if err := m.PlacePortable("alice", "off-1"); err != nil {
		t.Fatal(err)
	}
	var gotID string
	if err := m.OpenConnectionAsync("alice", req(64e3, 128e3), func(id string, err error) {
		if err != nil {
			t.Fatalf("setup failed: %v", err)
		}
		gotID = id
	}); err != nil {
		t.Fatal(err)
	}
	if err := sim.RunUntil(1); err != nil {
		t.Fatal(err)
	}
	if gotID == "" {
		t.Fatal("setup never completed")
	}
	var holds []eventbus.SignalHold
	var commits []eventbus.SignalCommit
	for _, r := range log.recs {
		switch ev := r.Event.(type) {
		case eventbus.SignalHold:
			if len(commits) > 0 {
				t.Fatalf("hold published after commit (seq %d)", r.Seq)
			}
			holds = append(holds, ev)
		case eventbus.SignalCommit:
			commits = append(commits, ev)
		case eventbus.SignalAbort:
			t.Fatalf("unexpected abort: %+v", ev)
		}
	}
	if len(holds) == 0 {
		t.Fatal("no tentative holds published")
	}
	if len(commits) != 1 {
		t.Fatalf("commits = %d, want 1", len(commits))
	}
	route := m.Connection(gotID).Route
	if len(holds) != len(route.Links) {
		t.Fatalf("holds = %d, want one per route hop (%d)", len(holds), len(route.Links))
	}
	for i, h := range holds {
		if h.Conn != gotID {
			t.Fatalf("hold %d for %q, want %q", i, h.Conn, gotID)
		}
		if h.Link != string(route.Links[i].ID) {
			t.Fatalf("hold %d on %s, want route hop %s", i, h.Link, route.Links[i].ID)
		}
	}
	if commits[0].Conn != gotID || commits[0].Latency <= 0 {
		t.Fatalf("commit = %+v", commits[0])
	}
}

// TestAsyncSetupEmitsHoldAbortPair covers the failure side: a request
// whose bandwidth fits every hop (so forward holds succeed) but whose
// delay bound is unachievable fails the destination's Table 2 evaluation,
// so the holds must be followed by exactly one SignalAbort — after every
// hold, for the same connection, with an end-to-end reason — and no
// commit.
func TestAsyncSetupEmitsHoldAbortPair(t *testing.T) {
	sim, m := newCampus(t, Config{})
	log := newSignalLog(m.Bus)
	if err := m.PlacePortable("bob", "off-2"); err != nil {
		t.Fatal(err)
	}
	impossible := qos.Request{
		Bandwidth: qos.Bounds{Min: 64e3, Max: 128e3},
		Delay:     1e-9, Jitter: 5, Loss: 0.05,
		Traffic: qos.TrafficSpec{Sigma: 16e3, Rho: 64e3},
	}
	called := false
	if err := m.OpenConnectionAsync("bob", impossible, func(id string, err error) {
		called = true
		if err == nil {
			t.Fatalf("impossible delay bound admitted as %s", id)
		}
	}); err != nil {
		t.Fatal(err)
	}
	if err := sim.RunUntil(1); err != nil {
		t.Fatal(err)
	}
	if !called {
		t.Fatal("completion callback never ran")
	}
	var holds, commits, aborts int
	var lastHoldSeq, abortSeq uint64
	var conn string
	for _, r := range log.recs {
		switch ev := r.Event.(type) {
		case eventbus.SignalHold:
			holds++
			lastHoldSeq = r.Seq
			conn = ev.Conn
		case eventbus.SignalCommit:
			commits++
		case eventbus.SignalAbort:
			aborts++
			abortSeq = r.Seq
			if ev.Conn != conn {
				t.Fatalf("abort for %q, holds for %q", ev.Conn, conn)
			}
			if len(ev.Reason) < len("end-to-end:") || ev.Reason[:len("end-to-end:")] != "end-to-end:" {
				t.Fatalf("abort reason %q, want end-to-end:*", ev.Reason)
			}
		}
	}
	if holds == 0 || aborts != 1 || commits != 0 {
		t.Fatalf("holds=%d commits=%d aborts=%d, want holds>0 commits=0 aborts=1", holds, commits, aborts)
	}
	if abortSeq <= lastHoldSeq {
		t.Fatalf("abort (seq %d) not after last hold (seq %d)", abortSeq, lastHoldSeq)
	}
}
