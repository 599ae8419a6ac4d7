package sim

import (
	"slices"
	"testing"

	"armnet/internal/core"
	"armnet/internal/topology"
)

// TestWalkLeavesSharedTopologyUnwritten holds the control plane to the
// read-only contract of the topology's shared slices: ShortestPath hands
// out the memo's routes and Neighbors the cells' own lists, so a whole
// campus walk must leave every route memoised before it, and every
// neighbor list, as they were — both in the slices handed out before the
// walk and in what the topology answers after it.
func TestWalkLeavesSharedTopologyUnwritten(t *testing.T) {
	env, err := topology.BuildCampus()
	if err != nil {
		t.Fatal(err)
	}
	type pair [2]topology.NodeID
	routes, routeCopies := map[pair]topology.Route{}, map[pair][]*topology.Link{}
	var nodes []topology.NodeID
	for _, l := range env.Backbone.Links() {
		if !slices.Contains(nodes, l.From) {
			nodes = append(nodes, l.From)
		}
	}
	for _, s := range nodes {
		for _, d := range nodes {
			if r, err := env.Backbone.ShortestPath(s, d); err == nil {
				routes[pair{s, d}] = r
				routeCopies[pair{s, d}] = slices.Clone(r.Links)
			}
		}
	}
	nbs, nbCopies := map[topology.CellID][]topology.CellID{}, map[topology.CellID][]topology.CellID{}
	for _, c := range env.Universe.Cells() {
		nbs[c.ID] = c.Neighbors()
		nbCopies[c.ID] = slices.Clone(c.Neighbors())
	}
	mgr, err := RunWalk(env, CampusConfig{Config: core.Config{Seed: 1}}.withDefaults(), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if mgr.Met.Counter.Get(core.CtrHandoffTried) == 0 {
		t.Fatal("the walk made no handoff; it would prove nothing")
	}
	for p, want := range routeCopies {
		if !slices.Equal(routes[p].Links, want) {
			t.Fatalf("route %s->%s handed out before the walk now reads %v, want %v", p[0], p[1], routes[p], topology.Route{Links: want})
		}
		if r, err := env.Backbone.ShortestPath(p[0], p[1]); err != nil || !slices.Equal(r.Links, want) {
			t.Fatalf("route %s->%s after the walk: %v, %v; want %v", p[0], p[1], r, err, topology.Route{Links: want})
		}
	}
	for id, want := range nbCopies {
		if !slices.Equal(nbs[id], want) {
			t.Fatalf("neighbors of %s handed out before the walk now read %v, want %v", id, nbs[id], want)
		}
		if got := env.Universe.Cell(id).Neighbors(); !slices.Equal(got, want) {
			t.Fatalf("neighbors of %s after the walk: %v, want %v", id, got, want)
		}
	}
}
