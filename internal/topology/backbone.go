package topology

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
)

// nodeKind distinguishes the roles a backbone node can play.
type nodeKind int

const (
	// KindSwitch is an interior switch/router on the wired backbone.
	KindSwitch nodeKind = iota
	// kindBaseStation terminates a cell's wireless link.
	kindBaseStation
	// KindHost is a wired correspondent host (server, gateway).
	KindHost
)

// String implements fmt.Stringer.
func (k nodeKind) String() string {
	switch k {
	case KindSwitch:
		return "switch"
	case kindBaseStation:
		return "base-station"
	case KindHost:
		return "host"
	default:
		return fmt.Sprintf("NodeKind(%d)", int(k))
	}
}

// Node is a backbone element.
type Node struct {
	ID   NodeID
	Kind nodeKind
	// Cell is the served cell when Kind == kindBaseStation.
	Cell CellID
}

// LinkID names a directed link "from->to".
type LinkID string

// Link is a directed backbone link. The wireless hop of a connection is
// modeled as the link between a base station and a synthetic air node,
// so admission logic treats wired and wireless hops uniformly.
type Link struct {
	ID       LinkID
	From, To NodeID
	// Capacity is the link speed C_l in bits/s.
	Capacity float64
	// PropDelay is the propagation delay in seconds (the paper omits it
	// in Table 2 "for simplicity of presentation"; we carry it anyway).
	PropDelay float64
	// Wireless marks the cell air interface; wireless links suffer
	// channel error and time-varying capacity.
	Wireless bool
	// LossProb is the steady-state packet error probability p_e,l used
	// by the Table 2 loss test.
	LossProb float64
	// Index numbers the backbone's links densely in creation order, so a
	// table over them is a slice. The backbone sets it, as it sets ID.
	Index int
}

// linkID builds the canonical directed link name.
func linkID(from, to NodeID) LinkID { return LinkID(string(from) + "->" + string(to)) }

// Backbone is the wired network graph plus wireless access links. Like
// everything under core.Manager it belongs to one goroutine: ShortestPath
// fills the route memo as it answers.
type Backbone struct {
	nodes map[NodeID]*Node
	links map[LinkID]*Link
	// index numbers the nodes densely in AddNode order; adj[i] holds node
	// i's outgoing links in link-ID order, each with its head's number.
	index map[NodeID]int
	adj   [][]arc
	// routes memoises ShortestPath per (src, dst). The graph only changes
	// through AddNode and addLink, which clear it; it holds at most one
	// entry per pair asked for, hosts × cells in a simulation. Each entry
	// is a window of pool, which only ever grows: a window, once handed
	// out, is never written again.
	routes map[[2]NodeID][]*Link
	pool   []*Link
	search search
}

// arc is an outgoing link and the number of the node it leads to.
type arc struct {
	link *Link
	to   int
}

// Errors returned by Backbone operations.
var (
	errDuplicateNode = errors.New("topology: duplicate node")
	errUnknownNode   = errors.New("topology: unknown node")
	errDuplicateLink = errors.New("topology: duplicate link")
	errNoRoute       = errors.New("topology: no route")
)

// NewBackbone returns an empty backbone graph.
func NewBackbone() *Backbone {
	return &Backbone{
		nodes:  make(map[NodeID]*Node),
		links:  make(map[LinkID]*Link),
		index:  make(map[NodeID]int),
		routes: make(map[[2]NodeID][]*Link),
	}
}

// AddNode registers a node.
func (b *Backbone) AddNode(n Node) (*Node, error) {
	if n.ID == "" {
		return nil, fmt.Errorf("topology: empty node id")
	}
	if _, ok := b.nodes[n.ID]; ok {
		return nil, fmt.Errorf("%w: %s", errDuplicateNode, n.ID)
	}
	nn := n
	b.nodes[n.ID] = &nn
	b.index[n.ID] = len(b.adj)
	b.adj = append(b.adj, nil)
	clear(b.routes)
	return &nn, nil
}

// addLink registers a directed link from->to.
func (b *Backbone) addLink(l Link) error {
	if _, ok := b.nodes[l.From]; !ok {
		return fmt.Errorf("%w: %s", errUnknownNode, l.From)
	}
	if _, ok := b.nodes[l.To]; !ok {
		return fmt.Errorf("%w: %s", errUnknownNode, l.To)
	}
	if !(l.Capacity > 0) {
		return fmt.Errorf("topology: link %s->%s capacity %v must be positive", l.From, l.To, l.Capacity)
	}
	// A negative delay schedules events in the past and a NaN one never
	// orders; a loss outside [0, 1] is no probability.
	if !(l.PropDelay >= 0) || math.IsInf(l.PropDelay, 1) {
		return fmt.Errorf("topology: link %s->%s propagation delay %v must be finite and non-negative", l.From, l.To, l.PropDelay)
	}
	if !(l.LossProb >= 0 && l.LossProb <= 1) {
		return fmt.Errorf("topology: link %s->%s loss probability %v is outside [0, 1]", l.From, l.To, l.LossProb)
	}
	l.ID = linkID(l.From, l.To)
	if _, ok := b.links[l.ID]; ok {
		return fmt.Errorf("%w: %s", errDuplicateLink, l.ID)
	}
	l.Index = len(b.links)
	ll := l
	b.links[ll.ID] = &ll
	// Kept in link-ID order, so route searches explore deterministically
	// without sorting.
	from := b.index[ll.From]
	adj := b.adj[from]
	i, _ := slices.BinarySearchFunc(adj, ll.ID, func(a arc, id LinkID) int { return cmp.Compare(a.link.ID, id) })
	b.adj[from] = slices.Insert(adj, i, arc{link: &ll, to: b.index[ll.To]})
	clear(b.routes)
	return nil
}

// AddDuplex registers both directions of a symmetric link.
func (b *Backbone) AddDuplex(l Link) error {
	if err := b.addLink(l); err != nil {
		return err
	}
	l.From, l.To = l.To, l.From
	return b.addLink(l)
}

// Link returns the directed link from->to, or nil.
func (b *Backbone) Link(from, to NodeID) *Link { return b.links[linkID(from, to)] }

// Links returns all links sorted by ID.
func (b *Backbone) Links() []*Link {
	out := make([]*Link, 0, len(b.links))
	for _, l := range b.links {
		out = append(out, l)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Route is an ordered sequence of links from a source node to a
// destination node.
type Route struct {
	Links []*Link
}

// Hops returns the number of links n on the route.
func (r Route) Hops() int { return len(r.Links) }

// Dest returns the last node on the route, or "" for an empty route.
func (r Route) Dest() NodeID {
	if len(r.Links) == 0 {
		return ""
	}
	return r.Links[len(r.Links)-1].To
}

// nodes returns the node sequence source..dest.
func (r Route) nodes() []NodeID {
	if len(r.Links) == 0 {
		return nil
	}
	out := make([]NodeID, 0, len(r.Links)+1)
	out = append(out, r.Links[0].From)
	for _, l := range r.Links {
		out = append(out, l.To)
	}
	return out
}

// String implements fmt.Stringer.
func (r Route) String() string {
	nodes := r.nodes()
	s := ""
	for i, n := range nodes {
		if i > 0 {
			s += " -> "
		}
		s += string(n)
	}
	return s
}

// ShortestPath returns the minimum-cost route from src to dst, where a
// link's cost is its propagation delay plus a constant per-hop charge, so
// routes prefer fewer hops when delays tie. Deterministic for fixed input.
// A pair asked for before is answered from the memo. The Route's links
// are the memo's, shared and read-only: a caller must not write through
// them, and the slice is clipped to its length, so an append copies.
func (b *Backbone) ShortestPath(src, dst NodeID) (Route, error) {
	key := [2]NodeID{src, dst}
	links, ok := b.routes[key]
	if !ok {
		var err error
		if links, err = b.dijkstra(src, dst); err != nil {
			return Route{}, err
		}
		b.routes[key] = links
	}
	return Route{Links: links[:len(links):len(links)]}, nil
}

// search is dijkstra's scratch, indexed by node number and kept by the
// Backbone between searches.
type search struct {
	dist    []float64
	prev    []*Link
	reached []bool // dist holds a tentative distance
	done    []bool // settled
	queue   []queued
}

// queued is a heap entry: a node's number, ID and tentative distance.
type queued struct {
	dist float64
	id   NodeID
	at   int
}

func (a queued) less(b queued) bool {
	if a.dist != b.dist {
		return a.dist < b.dist
	}
	return a.id < b.id // deterministic tiebreak
}

// push and pop are container/heap's Push and Pop on the value-typed
// queue, step for step.
func (s *search) push(it queued) {
	s.queue = append(s.queue, it)
	q := s.queue
	for j := len(q) - 1; ; {
		i := (j - 1) / 2
		if i == j || !q[j].less(q[i]) {
			break
		}
		q[i], q[j] = q[j], q[i]
		j = i
	}
}

func (s *search) pop() queued {
	q := s.queue
	n := len(q) - 1
	q[0], q[n] = q[n], q[0]
	for i := 0; ; {
		j := 2*i + 1
		if j >= n {
			break
		}
		if j2 := j + 1; j2 < n && q[j2].less(q[j]) {
			j = j2
		}
		if !q[j].less(q[i]) {
			break
		}
		q[i], q[j] = q[j], q[i]
		i = j
	}
	s.queue = q[:n]
	return q[n]
}

// dijkstra is ShortestPath's search, run once per pair and graph. It
// appends the route to the pool and returns its window, whose capacity
// runs on to the pool's end.
func (b *Backbone) dijkstra(src, dst NodeID) ([]*Link, error) {
	si, ok := b.index[src]
	if !ok {
		return nil, fmt.Errorf("%w: %s", errUnknownNode, src)
	}
	di, ok := b.index[dst]
	if !ok {
		return nil, fmt.Errorf("%w: %s", errUnknownNode, dst)
	}
	const hopCost = 1e-6
	s := &b.search
	if n := len(b.adj); len(s.dist) < n {
		s.dist, s.prev = make([]float64, n), make([]*Link, n)
		s.reached, s.done = make([]bool, n), make([]bool, n)
	} else {
		clear(s.prev)
		clear(s.reached)
		clear(s.done)
	}
	s.queue = s.queue[:0]
	s.dist[si], s.reached[si] = 0, true
	s.push(queued{dist: 0, id: src, at: si})
	for len(s.queue) > 0 {
		it := s.pop()
		if s.done[it.at] {
			continue
		}
		s.done[it.at] = true
		if it.at == di {
			break
		}
		for _, a := range b.adj[it.at] {
			nd := it.dist + a.link.PropDelay + hopCost
			if !s.reached[a.to] || nd < s.dist[a.to] {
				s.dist[a.to], s.reached[a.to] = nd, true
				s.prev[a.to] = a.link
				s.push(queued{dist: nd, id: a.link.To, at: a.to})
			}
		}
	}
	if !s.reached[di] || math.IsInf(s.dist[di], 1) {
		return nil, fmt.Errorf("%w: %s -> %s", errNoRoute, src, dst)
	}
	hops := 0
	for at := di; at != si; at = b.index[s.prev[at].From] {
		hops++
	}
	if hops == 0 {
		return nil, nil
	}
	start := len(b.pool)
	b.pool = slices.Grow(b.pool, hops)[:start+hops]
	links := b.pool[start:]
	for at := di; at != si; at = b.index[s.prev[at].From] {
		hops--
		links[hops] = s.prev[at]
	}
	return links, nil
}

// MulticastTree is the union of routes from a source to several
// destinations — the structure the paper sets up on the wired network so
// packets can be multicast to the pre-allocated buffers in neighboring
// cells (paper §4).
type MulticastTree struct {
	Source NodeID
	// Branches maps each destination to its route from Source.
	Branches map[NodeID]Route
	// Links is the deduplicated set of links in the tree.
	Links []*Link
}

// Multicast builds the shortest-path multicast tree from src to dsts.
// Destinations equal to src are skipped. Unreachable destinations yield
// an error.
func (b *Backbone) Multicast(src NodeID, dsts []NodeID) (MulticastTree, error) {
	tree := MulticastTree{Source: src, Branches: make(map[NodeID]Route)}
	seen := map[LinkID]bool{}
	for _, d := range dsts {
		if d == src {
			continue
		}
		r, err := b.ShortestPath(src, d)
		if err != nil {
			return MulticastTree{}, fmt.Errorf("multicast to %s: %w", d, err)
		}
		tree.Branches[d] = r
		for _, l := range r.Links {
			if !seen[l.ID] {
				seen[l.ID] = true
				tree.Links = append(tree.Links, l)
			}
		}
	}
	sort.Slice(tree.Links, func(i, j int) bool { return tree.Links[i].ID < tree.Links[j].ID })
	return tree, nil
}
