package predict

import (
	"fmt"
	"testing"

	"armnet/internal/mobility"
	"armnet/internal/profile"
	"armnet/internal/raceflag"
	"armnet/internal/randx"
	"armnet/internal/topology"
)

// walkStep is one move of a recorded walk, its cells resolved once: a
// placement when from is nil.
type walkStep struct {
	portable int // index into the walk's names
	from, to *topology.Cell
	t        float64
}

// campusWalk is one seed's walk of the bench's campus-walk workload: 48
// portables, 60 s mean dwell, 900 s.
func campusWalk(tb testing.TB, seed int64) (*topology.Universe, []string, []walkStep) {
	env, err := topology.BuildCampus()
	if err != nil {
		tb.Fatal(err)
	}
	u := env.Universe
	names := make([]string, 48)
	index := map[string]int{}
	for i := range names {
		names[i] = fmt.Sprintf("p%02d", i)
		index[names[i]] = i
	}
	tr, err := mobility.RandomWalk(u, names, 60, 900, randx.New(seed+1))
	if err != nil {
		tb.Fatal(err)
	}
	steps := make([]walkStep, len(tr.Moves))
	for i, mv := range tr.Moves {
		steps[i] = walkStep{portable: index[mv.Portable], from: u.Cell(mv.From), to: u.Cell(mv.To), t: mv.Time}
	}
	return u, names, steps
}

// learn feeds the walk to a fresh predictor as core does: a portable is
// numbered when it appears, and each handoff is reported and, when
// predict is set, followed by the next-cell prediction from its new cell.
func learn(u *topology.Universe, names []string, steps []walkStep, predict bool) *Predictor {
	p := New(u, profile.ServerOptions{})
	nums := make([]int, len(names))
	prev := make([]*topology.Cell, len(names))
	for _, s := range steps {
		if s.from == nil {
			nums[s.portable], prev[s.portable] = p.Number(names[s.portable]), nil
			continue
		}
		n := nums[s.portable]
		p.RecordHandoff(n, prev[s.portable], s.from, s.to, s.t)
		prev[s.portable] = s.from
		if predict {
			_ = p.NextCell(n, s.from, s.to)
		}
	}
	return p
}

// BenchmarkRecordHandoff learns one seed's campus walk on a fresh
// predictor per op: campus-walk's cost is mostly first visits (new rows,
// new slots, new profiles), which a warm predictor never pays.
func BenchmarkRecordHandoff(b *testing.B) {
	u, names, steps := campusWalk(b, 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		learn(u, names, steps, false)
	}
	b.ReportMetric(float64(len(steps)-len(names)), "handoffs/op")
}

// BenchmarkNextCell is BenchmarkRecordHandoff with the prediction core
// asks for after every handoff: the difference of the two is NextCell's
// share.
func BenchmarkNextCell(b *testing.B) {
	u, names, steps := campusWalk(b, 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		learn(u, names, steps, true)
	}
	b.ReportMetric(float64(len(steps)-len(names)), "handoffs/op")
}

// learnAllocBudget bounds the allocations of learning one seed's campus
// walk (729 handoffs), predictions included: measured at 633 for seed 0,
// against 1,634 when the profile tables were ID-keyed maps.
const learnAllocBudget = 700

// TestPredictorAllocBudget pins a warm handoff report and prediction on
// a revisited <prev, cur> at zero allocations, inside a zone and across
// one, and bounds what learning a whole campus walk allocates.
func TestPredictorAllocBudget(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("race detector adds bookkeeping allocations")
	}
	env, err := topology.BuildCampus()
	if err != nil {
		t.Fatal(err)
	}
	u := env.Universe
	w1, w2, e1, lounge := u.Cell("cor-w1"), u.Cell("cor-w2"), u.Cell("cor-e1"), u.Cell("lounge")
	p := New(u, profile.ServerOptions{})
	n := p.Number("x")
	for name, pair := range map[string]func(){
		"within a zone": func() {
			p.RecordHandoff(n, w1, w2, lounge, 10)
			_ = p.NextCell(n, w2, lounge)
		},
		"across zones": func() {
			p.RecordHandoff(n, w1, w2, e1, 10)
			_ = p.NextCell(n, w2, e1)
			p.RecordHandoff(n, w2, e1, w2, 10)
			_ = p.NextCell(n, e1, w2)
		},
	} {
		for i := 0; i < 600; i++ { // fill every history window
			pair()
		}
		if got := testing.AllocsPerRun(500, pair); got != 0 {
			t.Errorf("a warm handoff report and prediction %s allocate %v/op, want 0", name, got)
		}
	}

	u, names, steps := campusWalk(t, 0)
	got := testing.AllocsPerRun(5, func() { learn(u, names, steps, true) })
	t.Logf("learning the walk's %d handoffs allocates %v", len(steps)-len(names), got)
	if got > learnAllocBudget {
		t.Fatalf("learning one campus walk allocates %v, budget %d", got, learnAllocBudget)
	}
}
