package sim

import (
	"fmt"
	"strings"

	"armnet/internal/admission"
	"armnet/internal/qos"
	"armnet/internal/sched"
	"armnet/internal/topology"
)

// Table2Config drives the admission-test demonstration: a connection with
// the given QoS request admitted over an n-hop path under one scheduling
// discipline.
type Table2Config struct {
	// Discipline selects WFQ or RCSP buffer rows.
	Discipline sched.Discipline
	// mobility selects the reverse-pass allocation rule.
	mobility qos.Mobility
	// bStamp is the stamped rate carried by the forward pass.
	bStamp float64
}

const (
	// table2Hops is the wired path length before the wireless hop.
	table2Hops = 3
	// table2Wired and table2Wireless set the link speeds.
	table2Wired, table2Wireless = 10e6, 1.6e6
)

// table2Request is the connection's QoS requirement.
var table2Request = qos.Request{
	Bandwidth: qos.Bounds{Min: 64e3, Max: 256e3},
	Delay:     2,
	Jitter:    2,
	Loss:      0.02,
	Traffic:   qos.TrafficSpec{Sigma: 16e3, Rho: 64e3},
}

// Table2Result is the per-hop admission outcome — the rows of Table 2.
type Table2Result struct {
	Config Table2Config
	admission.Result
}

// buildTable2Path constructs the linear host→switches→bs→air topology.
func buildTable2Path(hops int, wired, wireless float64) (*topology.Backbone, topology.Route, error) {
	b := topology.NewBackbone()
	prev := topology.NodeID("host")
	if _, err := b.AddNode(topology.Node{ID: prev, Kind: topology.KindHost}); err != nil {
		return nil, topology.Route{}, err
	}
	for i := 1; i < hops; i++ {
		id := topology.NodeID(fmt.Sprintf("sw%d", i))
		if _, err := b.AddNode(topology.Node{ID: id, Kind: topology.KindSwitch}); err != nil {
			return nil, topology.Route{}, err
		}
		if err := b.AddDuplex(topology.Link{From: prev, To: id, Capacity: wired, PropDelay: 1e-3}); err != nil {
			return nil, topology.Route{}, err
		}
		prev = id
	}
	if _, err := b.AddNode(topology.Node{ID: "air", Kind: topology.KindHost}); err != nil {
		return nil, topology.Route{}, err
	}
	if err := b.AddDuplex(topology.Link{From: prev, To: "air", Capacity: wireless, Wireless: true, LossProb: 0.005}); err != nil {
		return nil, topology.Route{}, err
	}
	r, err := b.ShortestPath("host", "air")
	if err != nil {
		return nil, topology.Route{}, err
	}
	return b, r, nil
}

// RunTable2 admits one connection over the configured path and returns
// the per-hop forward/reverse values of Table 2.
func RunTable2(cfg Table2Config) (Table2Result, error) {
	b, route, err := buildTable2Path(table2Hops, table2Wired, table2Wireless)
	if err != nil {
		return Table2Result{}, err
	}
	ctl := admission.NewController(admission.NewLedger(b))
	res, err := ctl.Admit(admission.Test{
		ConnID:     "demo",
		Req:        table2Request,
		Route:      route,
		Kind:       admission.KindNew,
		Mobility:   cfg.mobility,
		BStamp:     cfg.bStamp,
		Discipline: cfg.Discipline,
	})
	if err != nil {
		return Table2Result{}, err
	}
	return Table2Result{Config: cfg, Result: res}, nil
}

// String renders the per-hop admission rows.
func (r Table2Result) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "discipline=%s admitted=%v bandwidth=%.0f d_min=%.4fs jitter=%.4fs loss=%.4f\n",
		r.Config.Discipline, r.Admitted, r.Bandwidth, r.DelayFloor, r.EndToEndJitter, r.EndToEndLoss)
	fmt.Fprintf(&sb, "%-4s %-24s %-12s %-12s %-12s %-12s\n", "hop", "link", "d_l (s)", "d'_l (s)", "jitter (s)", "buffer (b)")
	for i, h := range r.Hops {
		fmt.Fprintf(&sb, "%-4d %-24s %-12.5f %-12.5f %-12.5f %-12.0f\n",
			i+1, h.Link, h.HopDelay, h.RelaxedDelay, h.Jitter, h.Buffer)
	}
	return sb.String()
}
