package topology

import (
	"cmp"
	"container/heap"
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
)

// NodeKind distinguishes the roles a backbone node can play.
type NodeKind int

const (
	// KindSwitch is an interior switch/router on the wired backbone.
	KindSwitch NodeKind = iota
	// KindBaseStation terminates a cell's wireless link.
	KindBaseStation
	// KindHost is a wired correspondent host (server, gateway).
	KindHost
)

// String implements fmt.Stringer.
func (k NodeKind) String() string {
	switch k {
	case KindSwitch:
		return "switch"
	case KindBaseStation:
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
	Kind NodeKind
	// Cell is the served cell when Kind == KindBaseStation.
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
}

// linkID builds the canonical directed link name.
func linkID(from, to NodeID) LinkID { return LinkID(string(from) + "->" + string(to)) }

// Backbone is the wired network graph plus wireless access links. Like
// everything under core.Manager it belongs to one goroutine: ShortestPath
// fills the route memo as it answers.
type Backbone struct {
	nodes map[NodeID]*Node
	links map[LinkID]*Link
	adj   map[NodeID][]*Link // outgoing links per node, in link-ID order
	// routes memoises ShortestPath per (src, dst). The graph only changes
	// through AddNode and AddLink, which clear it; it holds at most one
	// entry per pair asked for, hosts × cells in a simulation.
	routes map[[2]NodeID][]*Link
}

// Errors returned by Backbone operations.
var (
	ErrDuplicateNode = errors.New("topology: duplicate node")
	ErrUnknownNode   = errors.New("topology: unknown node")
	ErrDuplicateLink = errors.New("topology: duplicate link")
	ErrUnknownLink   = errors.New("topology: unknown link")
	ErrNoRoute       = errors.New("topology: no route")
)

// NewBackbone returns an empty backbone graph.
func NewBackbone() *Backbone {
	return &Backbone{
		nodes:  make(map[NodeID]*Node),
		links:  make(map[LinkID]*Link),
		adj:    make(map[NodeID][]*Link),
		routes: make(map[[2]NodeID][]*Link),
	}
}

// AddNode registers a node.
func (b *Backbone) AddNode(n Node) (*Node, error) {
	if n.ID == "" {
		return nil, fmt.Errorf("topology: empty node id")
	}
	if _, ok := b.nodes[n.ID]; ok {
		return nil, fmt.Errorf("%w: %s", ErrDuplicateNode, n.ID)
	}
	nn := n
	b.nodes[n.ID] = &nn
	clear(b.routes)
	return &nn, nil
}

// MustAddNode is AddNode that panics on error.
func (b *Backbone) MustAddNode(n Node) *Node {
	node, err := b.AddNode(n)
	if err != nil {
		panic(err)
	}
	return node
}

// AddLink registers a directed link from->to.
func (b *Backbone) AddLink(l Link) (*Link, error) {
	if _, ok := b.nodes[l.From]; !ok {
		return nil, fmt.Errorf("%w: %s", ErrUnknownNode, l.From)
	}
	if _, ok := b.nodes[l.To]; !ok {
		return nil, fmt.Errorf("%w: %s", ErrUnknownNode, l.To)
	}
	if l.Capacity <= 0 {
		return nil, fmt.Errorf("topology: link %s->%s capacity must be positive", l.From, l.To)
	}
	l.ID = linkID(l.From, l.To)
	if _, ok := b.links[l.ID]; ok {
		return nil, fmt.Errorf("%w: %s", ErrDuplicateLink, l.ID)
	}
	ll := l
	b.links[ll.ID] = &ll
	// Kept in link-ID order, so route searches explore deterministically
	// without sorting.
	adj := b.adj[ll.From]
	i, _ := slices.BinarySearchFunc(adj, ll.ID, func(l *Link, id LinkID) int { return cmp.Compare(l.ID, id) })
	b.adj[ll.From] = slices.Insert(adj, i, &ll)
	clear(b.routes)
	return &ll, nil
}

// AddDuplex registers both directions of a symmetric link.
func (b *Backbone) AddDuplex(l Link) error {
	if _, err := b.AddLink(l); err != nil {
		return err
	}
	l.From, l.To = l.To, l.From
	_, err := b.AddLink(l)
	return err
}

// MustAddDuplex is AddDuplex that panics on error.
func (b *Backbone) MustAddDuplex(l Link) {
	if err := b.AddDuplex(l); err != nil {
		panic(err)
	}
}

// Node returns the named node, or nil.
func (b *Backbone) Node(id NodeID) *Node { return b.nodes[id] }

// Link returns the directed link from->to, or nil.
func (b *Backbone) Link(from, to NodeID) *Link { return b.links[linkID(from, to)] }

// LinkByID returns the link with the given ID, or nil.
func (b *Backbone) LinkByID(id LinkID) *Link { return b.links[id] }

// Links returns all links sorted by ID.
func (b *Backbone) Links() []*Link {
	out := make([]*Link, 0, len(b.links))
	for _, l := range b.links {
		out = append(out, l)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Nodes returns all nodes sorted by ID.
func (b *Backbone) Nodes() []*Node {
	out := make([]*Node, 0, len(b.nodes))
	for _, n := range b.nodes {
		out = append(out, n)
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

// Source returns the first node on the route, or "" for an empty route.
func (r Route) Source() NodeID {
	if len(r.Links) == 0 {
		return ""
	}
	return r.Links[0].From
}

// Dest returns the last node on the route, or "" for an empty route.
func (r Route) Dest() NodeID {
	if len(r.Links) == 0 {
		return ""
	}
	return r.Links[len(r.Links)-1].To
}

// Nodes returns the node sequence source..dest.
func (r Route) Nodes() []NodeID {
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
	nodes := r.Nodes()
	s := ""
	for i, n := range nodes {
		if i > 0 {
			s += " -> "
		}
		s += string(n)
	}
	return s
}

type dijkstraItem struct {
	node NodeID
	dist float64
	idx  int
}

type dijkstraQueue []*dijkstraItem

func (q dijkstraQueue) Len() int { return len(q) }
func (q dijkstraQueue) Less(i, j int) bool {
	if q[i].dist != q[j].dist {
		return q[i].dist < q[j].dist
	}
	return q[i].node < q[j].node // deterministic tiebreak
}
func (q dijkstraQueue) Swap(i, j int) {
	q[i], q[j] = q[j], q[i]
	q[i].idx = i
	q[j].idx = j
}
func (q *dijkstraQueue) Push(x any) {
	it := x.(*dijkstraItem)
	it.idx = len(*q)
	*q = append(*q, it)
}
func (q *dijkstraQueue) Pop() any {
	old := *q
	n := len(old)
	it := old[n-1]
	old[n-1] = nil
	*q = old[:n-1]
	return it
}

// ShortestPath returns the minimum-cost route from src to dst, where a
// link's cost is its propagation delay plus a constant per-hop charge, so
// routes prefer fewer hops when delays tie. Deterministic for fixed input.
// A pair asked for before is answered from the memo; the Route is the
// caller's own either way.
func (b *Backbone) ShortestPath(src, dst NodeID) (Route, error) {
	key := [2]NodeID{src, dst}
	links, ok := b.routes[key]
	if !ok {
		r, err := b.dijkstra(src, dst)
		if err != nil {
			return Route{}, err
		}
		links = r.Links
		b.routes[key] = links
	}
	return Route{Links: slices.Clone(links)}, nil
}

// dijkstra is ShortestPath's search, run once per pair and graph.
func (b *Backbone) dijkstra(src, dst NodeID) (Route, error) {
	if _, ok := b.nodes[src]; !ok {
		return Route{}, fmt.Errorf("%w: %s", ErrUnknownNode, src)
	}
	if _, ok := b.nodes[dst]; !ok {
		return Route{}, fmt.Errorf("%w: %s", ErrUnknownNode, dst)
	}
	const hopCost = 1e-6
	dist := map[NodeID]float64{src: 0}
	prev := map[NodeID]*Link{}
	visited := map[NodeID]bool{}
	q := &dijkstraQueue{}
	heap.Push(q, &dijkstraItem{node: src, dist: 0})
	for q.Len() > 0 {
		it := heap.Pop(q).(*dijkstraItem)
		if visited[it.node] {
			continue
		}
		visited[it.node] = true
		if it.node == dst {
			break
		}
		for _, l := range b.adj[it.node] {
			nd := it.dist + l.PropDelay + hopCost
			if old, ok := dist[l.To]; !ok || nd < old {
				dist[l.To] = nd
				prev[l.To] = l
				heap.Push(q, &dijkstraItem{node: l.To, dist: nd})
			}
		}
	}
	if _, ok := dist[dst]; !ok || math.IsInf(dist[dst], 1) {
		return Route{}, fmt.Errorf("%w: %s -> %s", ErrNoRoute, src, dst)
	}
	if src == dst {
		return Route{}, nil
	}
	var links []*Link
	for at := dst; at != src; {
		l := prev[at]
		if l == nil {
			return Route{}, fmt.Errorf("%w: %s -> %s", ErrNoRoute, src, dst)
		}
		links = append(links, l)
		at = l.From
	}
	// Reverse into forward order.
	for i, j := 0, len(links)-1; i < j; i, j = i+1, j-1 {
		links[i], links[j] = links[j], links[i]
	}
	return Route{Links: links}, nil
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
