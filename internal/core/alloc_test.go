package core

import (
	"testing"
	"unsafe"

	"armnet/internal/des"
	"armnet/internal/raceflag"
	"armnet/internal/topology"
)

// handoffRig places three one-connection portables in cor-w2 and returns
// a step that hands the first of them to the other end of the
// cor-w2 ↔ cor-e1 pair it alternates across.
func handoffRig(tb testing.TB) (*Manager, func()) {
	env, err := topology.BuildCampus()
	if err != nil {
		tb.Fatal(err)
	}
	m, err := NewManager(des.New(), env, Config{})
	if err != nil {
		tb.Fatal(err)
	}
	for _, id := range []string{"walker", "sitter-1", "sitter-2"} {
		if err := m.PlacePortable(id, "cor-w2"); err != nil {
			tb.Fatal(err)
		}
		if _, err := m.OpenConnection(id, req(64e3, 256e3)); err != nil {
			tb.Fatal(err)
		}
	}
	cells := [2]topology.CellID{"cor-e1", "cor-w2"}
	n := 0
	return m, func() {
		if err := m.HandoffPortable("walker", cells[n%2]); err != nil {
			tb.Fatal(err)
		}
		n++
	}
}

// TestHandoffAllocBudget pins the handoff path at zero allocations once
// the geometry memos, plans and cell records are warm: typed bus handlers
// take the events unboxed, routes come shared from the memo, admission
// reports its hops in the controller's scratch, the connection walk and
// the adaptation record are reused, and the static timer's record comes
// from a des slab (one allocation per 64 handoffs, which rounds to zero).
func TestHandoffAllocBudget(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("race detector adds bookkeeping allocations")
	}
	m, handoff := handoffRig(t)
	for i := 0; i < 20; i++ {
		handoff()
	}
	if got := testing.AllocsPerRun(500, handoff); got != 0 {
		t.Fatalf("a steady-state handoff allocates %v objects, want 0", got)
	}
	// One leg holder per base station ever reached: the seven around
	// cor-w2 and cor-e1.
	held := 0
	for _, h := range m.Portable("walker").conns[0].legs {
		if h != nil {
			held++
		}
	}
	if held != 7 {
		t.Fatalf("the walker's connection holds %d leg holders, want 7", held)
	}
}

// TestGeometryReadsAllocFree pins downlink and adjustPools at zero
// allocations once the cell records exist.
func TestGeometryReadsAllocFree(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("race detector adds bookkeeping allocations")
	}
	m, handoff := handoffRig(t)
	handoff()
	m.becomeStatic(m.Portable("sitter-1"))
	var sink topology.LinkID
	w2, e1 := m.geo("cor-w2"), m.geo("cor-e1")
	for name, read := range map[string]func(){
		"downlink":    func() { sink = m.downlink("cor-e1") },
		"adjustPools": func() { m.adjustPools(w2, e1) },
	} {
		if got := testing.AllocsPerRun(1000, read); got != 0 {
			t.Errorf("%s allocates %v/op, want 0", name, got)
		}
	}
	_ = sink
}

func BenchmarkHandoffSteadyState(b *testing.B) {
	_, handoff := handoffRig(b)
	for i := 0; i < 20; i++ {
		handoff()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		handoff()
	}
}

func BenchmarkOpenClose(b *testing.B) {
	m, _ := handoffRig(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id, err := m.OpenConnection("walker", req(64e3, 256e3))
		if err != nil {
			b.Fatal(err)
		}
		if err := m.CloseConnection(id); err != nil {
			b.Fatal(err)
		}
	}
}

// TestConnectionFitsItsSizeClass: a Connection is allocated per open,
// and at 192 bytes it fills its allocation size class exactly; one more
// word puts every open in the 208-byte class (office-churn read +1.3 %
// alloc_kb_per_op when a field was added). A new field pays for itself
// by removing one.
func TestConnectionFitsItsSizeClass(t *testing.T) {
	if got := unsafe.Sizeof(Connection{}); got > 192 {
		t.Fatalf("Connection is %d bytes, over its 192-byte size class", got)
	}
}
