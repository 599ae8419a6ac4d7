package admission

import (
	"fmt"
	"testing"

	"armnet/internal/qos"
	"armnet/internal/sched"
	"armnet/internal/topology"
)

func benchRig(b *testing.B) (*Controller, topology.Route) {
	b.Helper()
	bb := topology.NewBackbone()
	for _, id := range []topology.NodeID{"h", "s1", "s2", "bs", "air"} {
		bb.MustAddNode(topology.Node{ID: id})
	}
	bb.MustAddDuplex(topology.Link{From: "h", To: "s1", Capacity: 100e6, PropDelay: 1e-3})
	bb.MustAddDuplex(topology.Link{From: "s1", To: "s2", Capacity: 100e6, PropDelay: 1e-3})
	bb.MustAddDuplex(topology.Link{From: "s2", To: "bs", Capacity: 100e6, PropDelay: 1e-3})
	bb.MustAddDuplex(topology.Link{From: "bs", To: "air", Capacity: 100e6, Wireless: true, LossProb: 0.005})
	r, err := bb.ShortestPath("h", "air")
	if err != nil {
		b.Fatal(err)
	}
	return NewController(NewLedger(bb)), r
}

func benchReq() qos.Request {
	return qos.Request{
		Bandwidth: qos.Bounds{Min: 64e3, Max: 256e3},
		Delay:     2, Jitter: 2, Loss: 0.02,
		Traffic: qos.TrafficSpec{Sigma: 16e3, Rho: 64e3},
	}
}

// benchIDs are the connection IDs the admit/release benchmarks cycle
// through, named up front so allocs/op counts the round trip alone.
func benchIDs() []string {
	ids := make([]string, 64)
	for i := range ids {
		ids[i] = fmt.Sprintf("c%d", i)
	}
	return ids
}

func BenchmarkAdmitReleaseWFQ(b *testing.B) {
	ctl, route := benchRig(b)
	req := benchReq()
	ids := benchIDs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id := ids[i%64]
		res, err := ctl.Admit(Test{ConnID: id, Req: req, Route: route, Mobility: qos.Mobile})
		if err != nil || !res.Admitted {
			b.Fatalf("admit failed: %v %v", err, res.Reason)
		}
		ctl.Ledger.Release(id, route)
	}
}

func BenchmarkAdmitReleaseRCSP(b *testing.B) {
	ctl, route := benchRig(b)
	req := benchReq()
	ids := benchIDs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id := ids[i%64]
		res, err := ctl.Admit(Test{ConnID: id, Req: req, Route: route, Mobility: qos.Mobile, Discipline: sched.DisciplineRCSP})
		if err != nil || !res.Admitted {
			b.Fatalf("admit failed: %v %v", err, res.Reason)
		}
		ctl.Ledger.Release(id, route)
	}
}

func BenchmarkLedgerExcess(b *testing.B) {
	ctl, route := benchRig(b)
	req := benchReq()
	for i := 0; i < 64; i++ {
		if _, err := ctl.Admit(Test{ConnID: fmt.Sprintf("c%d", i), Req: req, Route: route, Mobility: qos.Mobile}); err != nil {
			b.Fatal(err)
		}
	}
	ls := ctl.Ledger.Link(route.Links[0].ID)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = ls.ExcessAvailable()
	}
}
