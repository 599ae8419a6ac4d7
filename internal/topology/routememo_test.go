package topology

import (
	"container/heap"
	"errors"
	"fmt"
	"slices"
	"sort"
	"testing"
)

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

// shortestPathFresh is the reference ShortestPath is checked against: the
// search as it ran before routes were memoised and adjacency lists kept
// in link-ID order — nothing remembered between calls, every popped
// node's links copied and sorted before they are relaxed.
func (b *Backbone) shortestPathFresh(src, dst NodeID) (Route, error) {
	if _, ok := b.nodes[src]; !ok {
		return Route{}, fmt.Errorf("%w: %s", errUnknownNode, src)
	}
	if _, ok := b.nodes[dst]; !ok {
		return Route{}, fmt.Errorf("%w: %s", errUnknownNode, dst)
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
		return Route{}, fmt.Errorf("%w: %s -> %s", errNoRoute, src, dst)
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
		return gotErr != nil && errors.Is(gotErr, errNoRoute) == errors.Is(wantErr, errNoRoute) &&
			errors.Is(gotErr, errUnknownNode) == errors.Is(wantErr, errUnknownNode)
	}
	return gotErr == nil && slices.Equal(got.Links, want.Links)
}

// TestShortestPathMemo asks for every ordered pair of nodes on three
// topologies twice — the search, then the memo — and requires the same
// links, pointer for pointer, as the un-memoised reference, also after an
// append to every route handed out; then pins the memo's edges: graph
// mutations invalidate it and failures are not remembered.
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
	poison := &Link{ID: "poison"}
	for name, env := range map[string]*Environment{"campus": campus, "grid": grid, "corridor": corridor} {
		b := env.Backbone
		if _, err := b.AddNode(Node{ID: "island"}); err != nil { // every pair with it is errNoRoute
			t.Fatal(err)
		}
		nodes := []*Node{{ID: "missing"}}
		for _, n := range b.nodes {
			nodes = append(nodes, n)
		}
		sort.Slice(nodes, func(i, j int) bool { return nodes[i].ID < nodes[j].ID })
		type ref struct {
			r   Route
			err error
		}
		refs := map[[2]NodeID]ref{}
		var handed []Route
		for _, s := range nodes {
			for _, d := range nodes {
				want, wantErr := b.shortestPathFresh(s.ID, d.ID)
				refs[[2]NodeID{s.ID, d.ID}] = ref{want, wantErr}
				for _, pass := range []string{"search", "memo"} {
					got, err := b.ShortestPath(s.ID, d.ID)
					if !sameOutcome(got, err, want, wantErr) {
						t.Fatalf("%s %s->%s (%s): %v, %v; reference %v, %v", name, s.ID, d.ID, pass, got, err, want, wantErr)
					}
					handed = append(handed, got)
				}
			}
		}
		// Routes share the memo: an append must copy, not run on into
		// the routes memoised after the one appended to.
		for _, r := range handed {
			_ = append(r.Links, poison)
		}
		for pair, want := range refs {
			if got, err := b.ShortestPath(pair[0], pair[1]); !sameOutcome(got, err, want.r, want.err) {
				t.Fatalf("%s %s->%s after every route was appended to: %v, %v; reference %v", name, pair[0], pair[1], got, err, want.r)
			}
		}
	}

	b := NewBackbone()
	for _, id := range []NodeID{"a", "b", "c", "d"} {
		if _, err := b.AddNode(Node{ID: id}); err != nil {
			t.Fatal(err)
		}
	}
	for _, hop := range [][2]NodeID{{"a", "b"}, {"b", "c"}, {"c", "d"}} {
		if err := b.AddDuplex(Link{From: hop[0], To: hop[1], Capacity: 1, PropDelay: 1e-3}); err != nil {
			t.Fatal(err)
		}
	}
	r, err := b.ShortestPath("a", "d")
	if err != nil || r.Hops() != 3 {
		t.Fatalf("a->d = %v, %v", r, err)
	}
	_ = append(r.Links, poison)
	if again, err := b.ShortestPath("a", "d"); err != nil || again.String() != "a -> b -> c -> d" {
		t.Fatalf("a->d after the caller appended to its route: %v, %v", again, err)
	}
	if err := b.addLink(Link{From: "a", To: "d", Capacity: 1, PropDelay: 1e-3}); err != nil {
		t.Fatal(err)
	}
	if r, err := b.ShortestPath("a", "d"); err != nil || r.Hops() != 1 {
		t.Fatalf("a->d after a direct link was added: %v, %v", r, err)
	}
	if _, err := b.AddNode(Node{ID: "e"}); err != nil {
		t.Fatal(err)
	}
	if len(b.routes) != 0 {
		t.Fatalf("AddNode left %d memoised routes", len(b.routes))
	}
	if _, err := b.ShortestPath("a", "e"); !errors.Is(err, errNoRoute) {
		t.Fatalf("a->e = %v, want ErrNoRoute", err)
	}
	if err := b.addLink(Link{From: "d", To: "e", Capacity: 1}); err != nil {
		t.Fatal(err)
	}
	if r, err := b.ShortestPath("a", "e"); err != nil || r.String() != "a -> d -> e" {
		t.Fatalf("a->e once reachable: %v, %v", r, err)
	}
}

// TestShortestPathHitAllocs: a memoised pair is a map read; the Route
// shares the memo's links.
func TestShortestPathHitAllocs(t *testing.T) {
	env, err := BuildCampus()
	if err != nil {
		t.Fatal(err)
	}
	src, dst := env.Hosts[0], AirNode(env.Universe.Cells()[0].ID)
	if _, err := env.Backbone.ShortestPath(src, dst); err != nil {
		t.Fatal(err)
	}
	if got := testing.AllocsPerRun(1000, func() { _, _ = env.Backbone.ShortestPath(src, dst) }); got != 0 {
		t.Fatalf("a memoised ShortestPath allocates %v/op, want 0", got)
	}
}

// TestNeighborsAppendCopies: Neighbors hands out the cell's own list, so
// a caller that appends to it must get a copy — otherwise its element
// would sit in the list's spare room, where the next Connect writes.
func TestNeighborsAppendCopies(t *testing.T) {
	env, err := BuildCampus()
	if err != nil {
		t.Fatal(err)
	}
	u := env.Universe
	cells := u.Cells()
	if _, err := u.addCell(Cell{ID: "~last"}); err != nil { // sorts after every campus cell
		t.Fatal(err)
	}
	for _, c := range cells {
		nb := c.Neighbors()
		mine := append(nb, "~mine")
		if err := u.connect(c.ID, "~last"); err != nil {
			t.Fatal(err)
		}
		if got := mine[len(nb)]; got != "~mine" {
			t.Fatalf("%s: Connect overwrote the caller's appended neighbor with %q", c.ID, got)
		}
		if got := c.Neighbors(); !slices.Equal(got, append(slices.Clone(nb), "~last")) {
			t.Fatalf("%s: neighbors %v after Connect, want %v + ~last", c.ID, got, nb)
		}
	}
}
