package core

import (
	"testing"

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

// TestHandoffAllocBudget pins what the geometry memos bought: once the
// plans and cell records are warm, a handoff allocates only what it
// publishes, the routes and admission results it hands on, and the
// predictor's and timer's own records.
func TestHandoffAllocBudget(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("race detector adds bookkeeping allocations")
	}
	m, handoff := handoffRig(t)
	for i := 0; i < 20; i++ {
		handoff()
	}
	if got := testing.AllocsPerRun(500, handoff); got > 16 {
		t.Fatalf("a steady-state handoff allocates %v objects, want at most 16", got)
	}
	// One leg ID per base station ever reached: the seven around cor-w2
	// and cor-e1.
	if ids := m.Connection(m.Portable("walker").conns[0]).legIDs; len(ids) != 7 {
		t.Fatalf("the walker's connection holds %d leg IDs, want 7", len(ids))
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
	for name, read := range map[string]func(){
		"downlink":    func() { sink = m.downlink("cor-e1") },
		"adjustPools": func() { m.adjustPools("cor-w2", "cor-e1") },
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
