package strategy

import (
	"armnet/internal/clock"
	"armnet/internal/des"
	"armnet/internal/eventbus"
	"armnet/internal/maxmin"
)

func init() {
	RegisterAllocator(DefaultAllocator, ruleAllocator(maxmin.Paper))
}

// ruleAllocator returns the factory of the allocator whose switches run
// rule; the rule's name is the allocator's.
func ruleAllocator(rule maxmin.SwitchRule) AllocatorFactory {
	return func(sim *des.Simulator, opts maxmin.ProtocolOptions) Allocator {
		return &maxminAllocator{pr: maxmin.NewProtocolWith(clock.Sim(sim), opts, rule), rule: rule}
	}
}

// maxminAllocator adapts the §5.3.1 distributed ADVERTISE/UPDATE
// protocol, under any switch rule, to the Allocator seam. It is a pure
// forwarding shim: every call lands on the same concrete protocol methods
// core used before the seam existed, which is what keeps default-pair
// traces byte-identical.
type maxminAllocator struct {
	pr   *maxmin.Protocol
	rule maxmin.SwitchRule
}

// Underlying exposes the wrapped protocol when it runs the paper's rule,
// for callers that genuinely need maxmin-specific state (the chaos
// auditor's WaterFill oracle, the refined-vs-flooding ablation). A rival's
// rates are not WaterFill's, so it answers nil.
func (a *maxminAllocator) Underlying() *maxmin.Protocol {
	if a.rule.Weight != nil {
		return nil
	}
	return a.pr
}

func (a *maxminAllocator) Name() string { return a.rule.Name }

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
