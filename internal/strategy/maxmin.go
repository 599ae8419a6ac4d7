package strategy

import (
	"armnet/internal/clock"
	"armnet/internal/des"
	"armnet/internal/eventbus"
	"armnet/internal/maxmin"
)

func init() {
	RegisterAllocator(DefaultAllocator, func(sim *des.Simulator, opts maxmin.ProtocolOptions) Allocator {
		return &maxminAllocator{pr: maxmin.NewProtocolOn(clock.Sim(sim), opts)}
	})
}

// maxminAllocator adapts the paper's §5.3.1 distributed ADVERTISE/UPDATE
// protocol to the Allocator seam. It is a pure forwarding shim: every
// call lands on the same concrete protocol methods core used before the
// seam existed, which is what keeps default-pair traces byte-identical.
type maxminAllocator struct{ pr *maxmin.Protocol }

// Underlying exposes the wrapped protocol for callers that genuinely
// need maxmin-specific state (the chaos auditor's WaterFill oracle, the
// refined-vs-flooding ablation). Rival allocators have no equivalent.
func (a *maxminAllocator) Underlying() *maxmin.Protocol { return a.pr }

func (a *maxminAllocator) Name() string { return DefaultAllocator }

func (a *maxminAllocator) AddLink(name string, capacity float64) error {
	return a.pr.AddLink(name, capacity)
}

func (a *maxminAllocator) AddSession(s Session) error {
	return a.pr.AddConn(maxmin.Conn{ID: s.ID, Path: s.Path, Demand: s.Demand})
}

func (a *maxminAllocator) RemoveSession(id string) { a.pr.RemoveConn(id) }

func (a *maxminAllocator) Kick(id string) bool { return a.pr.Kick(id) }

func (a *maxminAllocator) CapacityChanged(link string, capacity float64) (int, error) {
	return a.pr.TriggerCapacityChange(link, capacity)
}

func (a *maxminAllocator) Rates() map[string]float64 { return a.pr.Rates() }

func (a *maxminAllocator) Bottlenecks() []LinkBottleneck {
	bs := a.pr.BottleneckSizes()
	if len(bs) == 0 {
		return nil
	}
	out := make([]LinkBottleneck, len(bs))
	for i, b := range bs {
		out[i] = LinkBottleneck{Link: b.Link, Size: b.Size}
	}
	return out
}

func (a *maxminAllocator) Stats() ControlStats {
	return ControlStats{
		Messages:     a.pr.Messages,
		Sessions:     a.pr.Sessions,
		Retransmits:  a.pr.Retransmits,
		Readvertises: a.pr.Readvertises,
	}
}

func (a *maxminAllocator) SetOnUpdate(fn func(conn string, rate float64)) { a.pr.OnUpdate = fn }

func (a *maxminAllocator) SetBus(bus *eventbus.Bus) { a.pr.Bus = bus }
