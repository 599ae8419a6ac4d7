package sched

import (
	"container/heap"
	"fmt"
	"slices"

	"armnet/internal/sortx"
)

// WFQ is a packetized weighted-fair-queueing scheduler. Each flow's weight
// is its reserved rate; the virtual clock advances at rate C divided by
// the total rate of backlogged flows, and packets are served in order of
// virtual finish time. This is the standard PGPS approximation whose
// per-hop delay for a (σ, ρ)-conforming flow with reserved rate g is
// bounded by σ/g + L_max/g + L_max/C — the bound Table 2's delay row uses.
type WFQ struct {
	capacity float64
	flows    map[string]*wfqFlow
	// ids lists the flows in ascending ID order and order holds them in
	// it: the backlogged-rate sum runs in that order, never the map's.
	ids   sortx.IDs[string]
	order []*wfqFlow
	queue wfqHeap
	vtime float64
	vlast float64 // real time of the last virtual-clock update
	seq   uint64
}

type wfqFlow struct {
	rate       float64
	lastFinish float64 // virtual finish time of the flow's newest packet
	backlog    int
}

type wfqItem struct {
	pkt    Packet
	finish float64
	seq    uint64
	index  int
}

type wfqHeap []*wfqItem

func (h wfqHeap) Len() int { return len(h) }
func (h wfqHeap) Less(i, j int) bool {
	if h[i].finish != h[j].finish {
		return h[i].finish < h[j].finish
	}
	return h[i].seq < h[j].seq
}
func (h wfqHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index = i
	h[j].index = j
}
func (h *wfqHeap) Push(x any) {
	it := x.(*wfqItem)
	it.index = len(*h)
	*h = append(*h, it)
}
func (h *wfqHeap) Pop() any {
	old := *h
	n := len(old)
	it := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return it
}

// NewWFQ returns a WFQ scheduler for a link of the given capacity (bits/s).
func NewWFQ(capacity float64) (*WFQ, error) {
	if capacity <= 0 {
		return nil, fmt.Errorf("sched: wfq capacity must be positive, got %v", capacity)
	}
	return &WFQ{capacity: capacity, flows: make(map[string]*wfqFlow)}, nil
}

// Name implements Scheduler.
func (w *WFQ) Name() string { return "wfq" }

// AddFlow implements Scheduler.
func (w *WFQ) AddFlow(flow string, rate float64) error {
	if _, ok := w.flows[flow]; ok {
		return fmt.Errorf("%w: %s", ErrDuplicateFlow, flow)
	}
	if rate <= 0 {
		return fmt.Errorf("sched: flow %s rate must be positive, got %v", flow, rate)
	}
	f := &wfqFlow{rate: rate}
	w.flows[flow] = f
	i, _ := w.ids.Insert(flow)
	w.order = slices.Insert(w.order, i, f)
	return nil
}

// RemoveFlow implements Scheduler. Queued packets of the flow are purged.
func (w *WFQ) RemoveFlow(flow string) {
	delete(w.flows, flow)
	if i, ok := w.ids.Remove(flow); ok {
		w.order = slices.Delete(w.order, i, i+1)
	}
	kept := w.queue[:0]
	for _, it := range w.queue {
		if it.pkt.Flow != flow {
			kept = append(kept, it)
		}
	}
	w.queue = kept
	heap.Init(&w.queue)
}

// advance moves the virtual clock to real time now. The virtual clock runs
// at rate capacity / (sum of backlogged rates); when idle it tracks real
// time scaled by capacity so new busy periods start fresh.
func (w *WFQ) advance(now float64) {
	if now <= w.vlast {
		return
	}
	total := 0.0
	for _, f := range w.order {
		if f.backlog > 0 {
			total += f.rate
		}
	}
	dt := now - w.vlast
	if total > 0 {
		w.vtime += dt * w.capacity / total
	} else {
		// Idle: the busy period ended, so no finish tag can matter any
		// more. Restart the virtual clock so stale tags do not penalize
		// flows in the next busy period (SCFQ-style reset).
		w.vtime = 0
		for _, f := range w.flows {
			f.lastFinish = 0
		}
	}
	w.vlast = now
}

// Enqueue implements Scheduler.
func (w *WFQ) Enqueue(p Packet, now float64) error {
	f, ok := w.flows[p.Flow]
	if !ok {
		return fmt.Errorf("%w: %s", ErrUnknownFlow, p.Flow)
	}
	if p.Size <= 0 {
		return fmt.Errorf("sched: packet size must be positive, got %v", p.Size)
	}
	w.advance(now)
	start := w.vtime
	if f.lastFinish > start {
		start = f.lastFinish
	}
	finish := start + p.Size/f.rate
	f.lastFinish = finish
	f.backlog++
	it := &wfqItem{pkt: p, finish: finish, seq: w.seq}
	w.seq++
	heap.Push(&w.queue, it)
	return nil
}

// Dequeue implements Scheduler.
func (w *WFQ) Dequeue(now float64) (Packet, bool) {
	w.advance(now)
	for len(w.queue) > 0 {
		it := heap.Pop(&w.queue).(*wfqItem)
		f, ok := w.flows[it.pkt.Flow]
		if !ok {
			continue // flow removed while queued
		}
		f.backlog--
		return it.pkt, true
	}
	return Packet{}, false
}

// NextEligible implements Scheduler. WFQ is work-conserving: a queued
// packet is always servable immediately.
func (w *WFQ) NextEligible(now float64) (float64, bool) {
	if len(w.queue) > 0 {
		return now, true
	}
	return 0, false
}

// Backlog implements Scheduler.
func (w *WFQ) Backlog() int { return len(w.queue) }

// ReservedRate returns the sum of registered flow rates; admission must
// keep this at or below the link capacity for the WFQ bounds to hold.
func (w *WFQ) ReservedRate() float64 {
	total := 0.0
	for _, f := range w.order {
		total += f.rate
	}
	return total
}
