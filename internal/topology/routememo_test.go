package topology

import (
	"container/heap"
	"errors"
	"fmt"
	"slices"
	"sort"
	"testing"
)

// shortestPathFresh is the reference ShortestPath is checked against: the
// search as it ran before routes were memoised and adjacency lists kept
// in link-ID order — nothing remembered between calls, every popped
// node's links copied and sorted before they are relaxed.
func (b *Backbone) shortestPathFresh(src, dst NodeID) (Route, error) {
	if _, ok := b.nodes[src]; !ok {
		return Route{}, fmt.Errorf("%w: %s", ErrUnknownNode, src)
	}
	if _, ok := b.nodes[dst]; !ok {
		return Route{}, fmt.Errorf("%w: %s", ErrUnknownNode, dst)
	}
	const hopCost = 1e-6
	out := map[NodeID][]*Link{} // the graph as given, not b.adj's order
	for _, l := range b.links {
		out[l.From] = append(out[l.From], l)
	}
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
		adj := out[it.node]
		sort.Slice(adj, func(i, j int) bool { return adj[i].ID < adj[j].ID })
		for _, l := range adj {
			nd := it.dist + l.PropDelay + hopCost
			if old, ok := dist[l.To]; !ok || nd < old {
				dist[l.To] = nd
				prev[l.To] = l
				heap.Push(q, &dijkstraItem{node: l.To, dist: nd})
			}
		}
	}
	if _, ok := dist[dst]; !ok {
		return Route{}, fmt.Errorf("%w: %s -> %s", ErrNoRoute, src, dst)
	}
	var links []*Link
	for at := dst; at != src; at = prev[at].From {
		links = append(links, prev[at])
	}
	slices.Reverse(links)
	return Route{Links: links}, nil
}

func sameOutcome(got Route, gotErr error, want Route, wantErr error) bool {
	if wantErr != nil {
		return gotErr != nil && errors.Is(gotErr, ErrNoRoute) == errors.Is(wantErr, ErrNoRoute) &&
			errors.Is(gotErr, ErrUnknownNode) == errors.Is(wantErr, ErrUnknownNode)
	}
	return gotErr == nil && slices.Equal(got.Links, want.Links)
}

// TestShortestPathMemo asks for every ordered pair of nodes on three
// topologies twice — the search, then the memo — and requires the same
// links, pointer for pointer, as the un-memoised reference; then pins the
// memo's edges: graph mutations invalidate it, failures are not
// remembered, and a caller writing through a Route cannot poison it.
func TestShortestPathMemo(t *testing.T) {
	campus, err := BuildCampus()
	if err != nil {
		t.Fatal(err)
	}
	grid, err := BuildGrid(4, 5, 1.6e6)
	if err != nil {
		t.Fatal(err)
	}
	corridor, err := BuildCorridor(6, 1.6e6)
	if err != nil {
		t.Fatal(err)
	}
	for name, env := range map[string]*Environment{"campus": campus, "grid": grid, "corridor": corridor} {
		b := env.Backbone
		b.MustAddNode(Node{ID: "island"}) // every pair with it is ErrNoRoute
		nodes := append(b.Nodes(), &Node{ID: "missing"})
		for _, s := range nodes {
			for _, d := range nodes {
				want, wantErr := b.shortestPathFresh(s.ID, d.ID)
				for _, pass := range []string{"search", "memo"} {
					got, err := b.ShortestPath(s.ID, d.ID)
					if !sameOutcome(got, err, want, wantErr) {
						t.Fatalf("%s %s->%s (%s): %v, %v; reference %v, %v", name, s.ID, d.ID, pass, got, err, want, wantErr)
					}
				}
			}
		}
	}

	b := NewBackbone()
	for _, id := range []NodeID{"a", "b", "c", "d"} {
		b.MustAddNode(Node{ID: id})
	}
	for _, hop := range [][2]NodeID{{"a", "b"}, {"b", "c"}, {"c", "d"}} {
		b.MustAddDuplex(Link{From: hop[0], To: hop[1], Capacity: 1, PropDelay: 1e-3})
	}
	r, err := b.ShortestPath("a", "d")
	if err != nil || r.Hops() != 3 {
		t.Fatalf("a->d = %v, %v", r, err)
	}
	r.Links[0], r.Links[2] = nil, r.Links[0]
	if again, err := b.ShortestPath("a", "d"); err != nil || again.String() != "a -> b -> c -> d" {
		t.Fatalf("a->d after the caller overwrote its route: %v, %v", again, err)
	}
	if _, err := b.AddLink(Link{From: "a", To: "d", Capacity: 1, PropDelay: 1e-3}); err != nil {
		t.Fatal(err)
	}
	if r, err := b.ShortestPath("a", "d"); err != nil || r.Hops() != 1 {
		t.Fatalf("a->d after a direct link was added: %v, %v", r, err)
	}
	b.MustAddNode(Node{ID: "e"})
	if len(b.routes) != 0 {
		t.Fatalf("AddNode left %d memoised routes", len(b.routes))
	}
	if _, err := b.ShortestPath("a", "e"); !errors.Is(err, ErrNoRoute) {
		t.Fatalf("a->e = %v, want ErrNoRoute", err)
	}
	if _, err := b.AddLink(Link{From: "d", To: "e", Capacity: 1}); err != nil {
		t.Fatal(err)
	}
	if r, err := b.ShortestPath("a", "e"); err != nil || r.String() != "a -> d -> e" {
		t.Fatalf("a->e once reachable: %v, %v", r, err)
	}
}

// TestShortestPathHitAllocs: a memoised pair costs the clone that makes
// the Route the caller's own, and nothing else.
func TestShortestPathHitAllocs(t *testing.T) {
	env, err := BuildCampus()
	if err != nil {
		t.Fatal(err)
	}
	src, dst := env.Hosts[0], AirNode(env.Universe.Cells()[0].ID)
	if _, err := env.Backbone.ShortestPath(src, dst); err != nil {
		t.Fatal(err)
	}
	if got := testing.AllocsPerRun(1000, func() { _, _ = env.Backbone.ShortestPath(src, dst) }); got > 1 {
		t.Fatalf("a memoised ShortestPath allocates %v/op, want at most 1", got)
	}
}
