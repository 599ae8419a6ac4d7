package topology

import (
	"errors"
	"math"
	"strings"
	"testing"
	"testing/quick"

	"armnet/internal/randx"
)

func TestUniverseBasics(t *testing.T) {
	u := newUniverse()
	a, err := u.addCell(Cell{ID: "A", Class: ClassOffice, Zone: "z1"})
	if err != nil {
		t.Fatal(err)
	}
	if a.BaseStation != "bs-A" {
		t.Fatalf("default base station = %s", a.BaseStation)
	}
	if _, err := u.addCell(Cell{ID: "A"}); !errors.Is(err, errDuplicateCell) {
		t.Fatalf("duplicate cell error = %v", err)
	}
	if _, err := u.addCell(Cell{}); err == nil {
		t.Fatal("empty cell id accepted")
	}
	for _, c := range []Cell{{ID: "B", Zone: "z1"}, {ID: "C"}} {
		if _, err := u.addCell(c); err != nil {
			t.Fatal(err)
		}
	}
	if err := u.connect("A", "B"); err != nil {
		t.Fatal(err)
	}
	if err := u.connect("A", "A"); !errors.Is(err, errSelfNeighbor) {
		t.Fatalf("self neighbor error = %v", err)
	}
	if err := u.connect("A", "nope"); !errors.Is(err, errUnknownCell) {
		t.Fatalf("unknown cell error = %v", err)
	}
	if !u.Cell("A").IsNeighbor("B") || !u.Cell("B").IsNeighbor("A") {
		t.Fatal("neighbor relation not symmetric")
	}
	if u.Len() != 3 {
		t.Fatalf("Len = %d", u.Len())
	}
	if got := u.Zone("z1"); len(got) != 2 {
		t.Fatalf("zone z1 = %v", got)
	}
	if got := u.Cell("C").Zone; got != "default" {
		t.Fatalf("default zone = %q", got)
	}
	if err := u.validate(); err != nil {
		t.Fatal(err)
	}
}

func TestOccupants(t *testing.T) {
	u := newUniverse()
	c, err := u.addCell(Cell{ID: "A", Class: ClassOffice, Occupants: []string{"alice", "bob"}})
	if err != nil {
		t.Fatal(err)
	}
	if !c.IsOccupant("alice") || c.IsOccupant("mallory") {
		t.Fatal("occupant test wrong")
	}
}

func TestClassStrings(t *testing.T) {
	for c, want := range map[Class]string{
		ClassUnknown: "unknown", ClassOffice: "office", ClassCorridor: "corridor",
		ClassMeetingRoom: "meeting-room", ClassCafeteria: "cafeteria",
		ClassLoungeDefault: "lounge-default",
	} {
		if c.String() != want {
			t.Errorf("%d.String() = %q, want %q", c, c.String(), want)
		}
	}
}

func TestBackboneLinkValidation(t *testing.T) {
	b := NewBackbone()
	if _, err := b.AddNode(Node{ID: "x", Kind: KindSwitch}); err != nil {
		t.Fatal(err)
	}
	if _, err := b.AddNode(Node{ID: "y", Kind: KindSwitch}); err != nil {
		t.Fatal(err)
	}
	if err := b.addLink(Link{From: "x", To: "nope", Capacity: 1}); !errors.Is(err, errUnknownNode) {
		t.Fatalf("unknown node error = %v", err)
	}
	if err := b.addLink(Link{From: "x", To: "y", Capacity: 0}); err == nil {
		t.Fatal("zero-capacity link accepted")
	}
	if err := b.addLink(Link{From: "x", To: "y", Capacity: 5}); err != nil {
		t.Fatal(err)
	}
	if err := b.addLink(Link{From: "x", To: "y", Capacity: 5}); !errors.Is(err, errDuplicateLink) {
		t.Fatalf("duplicate link error = %v", err)
	}
	if _, err := b.AddNode(Node{ID: "x"}); !errors.Is(err, errDuplicateNode) {
		t.Fatalf("duplicate node error = %v", err)
	}
	if l := b.Link("x", "y"); l == nil || l.Capacity != 5 {
		t.Fatal("Link lookup failed")
	}
	if b.Link("y", "x") != nil {
		t.Fatal("directed link present in reverse direction")
	}
}

func TestShortestPathChain(t *testing.T) {
	b := NewBackbone()
	for _, id := range []NodeID{"a", "b", "c", "d"} {
		if _, err := b.AddNode(Node{ID: id, Kind: KindSwitch}); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.AddDuplex(Link{From: "a", To: "b", Capacity: 1, PropDelay: 1e-3}); err != nil {
		t.Fatal(err)
	}
	if err := b.AddDuplex(Link{From: "b", To: "c", Capacity: 1, PropDelay: 1e-3}); err != nil {
		t.Fatal(err)
	}
	if err := b.AddDuplex(Link{From: "c", To: "d", Capacity: 1, PropDelay: 1e-3}); err != nil {
		t.Fatal(err)
	}
	r, err := b.ShortestPath("a", "d")
	if err != nil {
		t.Fatal(err)
	}
	if r.Hops() != 3 || r.Links[0].From != "a" || r.Dest() != "d" {
		t.Fatalf("route = %v", r)
	}
	if r.String() != "a -> b -> c -> d" {
		t.Fatalf("route string = %q", r.String())
	}
}

func TestShortestPathPrefersLowDelay(t *testing.T) {
	b := NewBackbone()
	for _, id := range []NodeID{"s", "m1", "m2", "t"} {
		if _, err := b.AddNode(Node{ID: id, Kind: KindSwitch}); err != nil {
			t.Fatal(err)
		}
	}
	// Two-hop path with tiny delays vs one-hop path with a huge delay.
	if err := b.AddDuplex(Link{From: "s", To: "m1", Capacity: 1, PropDelay: 1e-6}); err != nil {
		t.Fatal(err)
	}
	if err := b.AddDuplex(Link{From: "m1", To: "t", Capacity: 1, PropDelay: 1e-6}); err != nil {
		t.Fatal(err)
	}
	if err := b.AddDuplex(Link{From: "s", To: "t", Capacity: 1, PropDelay: 1}); err != nil {
		t.Fatal(err)
	}
	r, err := b.ShortestPath("s", "t")
	if err != nil {
		t.Fatal(err)
	}
	if r.Hops() != 2 {
		t.Fatalf("expected the low-delay 2-hop path, got %v", r)
	}
}

func TestShortestPathNoRoute(t *testing.T) {
	b := NewBackbone()
	if _, err := b.AddNode(Node{ID: "a"}); err != nil {
		t.Fatal(err)
	}
	if _, err := b.AddNode(Node{ID: "island"}); err != nil {
		t.Fatal(err)
	}
	if _, err := b.ShortestPath("a", "island"); !errors.Is(err, errNoRoute) {
		t.Fatalf("err = %v, want ErrNoRoute", err)
	}
	if _, err := b.ShortestPath("a", "missing"); !errors.Is(err, errUnknownNode) {
		t.Fatalf("err = %v, want ErrUnknownNode", err)
	}
}

func TestShortestPathSelf(t *testing.T) {
	b := NewBackbone()
	if _, err := b.AddNode(Node{ID: "a"}); err != nil {
		t.Fatal(err)
	}
	r, err := b.ShortestPath("a", "a")
	if err != nil {
		t.Fatal(err)
	}
	if r.Hops() != 0 {
		t.Fatalf("self route hops = %d", r.Hops())
	}
}

func TestMulticast(t *testing.T) {
	b := NewBackbone()
	for _, id := range []NodeID{"root", "l", "r", "ll", "lr"} {
		if _, err := b.AddNode(Node{ID: id, Kind: KindSwitch}); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.AddDuplex(Link{From: "root", To: "l", Capacity: 1, PropDelay: 1e-3}); err != nil {
		t.Fatal(err)
	}
	if err := b.AddDuplex(Link{From: "root", To: "r", Capacity: 1, PropDelay: 1e-3}); err != nil {
		t.Fatal(err)
	}
	if err := b.AddDuplex(Link{From: "l", To: "ll", Capacity: 1, PropDelay: 1e-3}); err != nil {
		t.Fatal(err)
	}
	if err := b.AddDuplex(Link{From: "l", To: "lr", Capacity: 1, PropDelay: 1e-3}); err != nil {
		t.Fatal(err)
	}
	tree, err := b.Multicast("root", []NodeID{"ll", "lr", "r", "root"})
	if err != nil {
		t.Fatal(err)
	}
	if len(tree.Branches) != 3 {
		t.Fatalf("branches = %d, want 3 (src skipped)", len(tree.Branches))
	}
	// Shared link root->l must appear exactly once in the dedup set.
	count := 0
	for _, l := range tree.Links {
		if l.ID == "root->l" {
			count++
		}
	}
	if count != 1 {
		t.Fatalf("shared link appears %d times", count)
	}
	if len(tree.Links) != 4 {
		t.Fatalf("tree links = %d, want 4", len(tree.Links))
	}
	if _, err := b.Multicast("root", []NodeID{"nowhere"}); err == nil {
		t.Fatal("multicast to unknown node succeeded")
	}
}

func TestBuildFigure4(t *testing.T) {
	env, err := BuildFigure4("prof", []string{"s1", "s2", "s3"})
	if err != nil {
		t.Fatal(err)
	}
	u := env.Universe
	if u.Len() != 7 {
		t.Fatalf("cells = %d, want 7", u.Len())
	}
	if u.Cell("A").Class != ClassOffice || !u.Cell("A").IsOccupant("prof") {
		t.Fatal("office A misconfigured")
	}
	if !u.Cell("B").IsOccupant("s2") || !u.Cell("B").IsOccupant("prof") {
		t.Fatal("office B should house students and faculty")
	}
	if !u.Cell("D").IsNeighbor("A") || !u.Cell("D").IsNeighbor("C") {
		t.Fatal("corridor D adjacency wrong")
	}
	if u.Cell("A").Capacity != 1.6e6 {
		t.Fatalf("capacity = %v", u.Cell("A").Capacity)
	}
	// Every base station must be reachable from the wired host.
	for _, c := range u.Cells() {
		if _, err := env.Backbone.ShortestPath(env.Hosts[0], c.BaseStation); err != nil {
			t.Fatalf("host cannot reach %s: %v", c.BaseStation, err)
		}
		// And the air node behind the wireless hop.
		if _, err := env.Backbone.ShortestPath(env.Hosts[0], AirNode(c.ID)); err != nil {
			t.Fatalf("host cannot reach air node of %s: %v", c.ID, err)
		}
	}
	// Wireless hop carries the cell capacity.
	wl := env.Backbone.Link(u.Cell("A").BaseStation, AirNode("A"))
	if wl == nil || !wl.Wireless || wl.Capacity != 1.6e6 {
		t.Fatalf("wireless link misbuilt: %+v", wl)
	}
}

func TestBuildCorridor(t *testing.T) {
	env, err := BuildCorridor(5, 2e6)
	if err != nil {
		t.Fatal(err)
	}
	u := env.Universe
	if u.Len() != 5 {
		t.Fatalf("cells = %d", u.Len())
	}
	if !u.Cell("c2").IsNeighbor("c1") || !u.Cell("c2").IsNeighbor("c3") {
		t.Fatal("chain adjacency wrong")
	}
	if u.Cell("c0").IsNeighbor("c2") {
		t.Fatal("non-adjacent corridor cells connected")
	}
	if _, err := BuildCorridor(1, 1e6); err == nil {
		t.Fatal("corridor of one cell accepted")
	}
}

func TestBuildMeetingWing(t *testing.T) {
	env, err := BuildMeetingWing(1.6e6)
	if err != nil {
		t.Fatal(err)
	}
	if env.Universe.Cell("M").Class != ClassMeetingRoom {
		t.Fatal("meeting room class wrong")
	}
	if !env.Universe.Cell("M").IsNeighbor("corr1") {
		t.Fatal("meeting room must adjoin middle corridor")
	}
}

func TestBuildCampus(t *testing.T) {
	env, err := BuildCampus()
	if err != nil {
		t.Fatal(err)
	}
	u := env.Universe
	if got := len(u.Zones()); got != 2 {
		t.Fatalf("zones = %d, want 2", got)
	}
	if err := u.validate(); err != nil {
		t.Fatal(err)
	}
	if len(env.Hosts) != 2 {
		t.Fatalf("hosts = %d, want 2", len(env.Hosts))
	}
	// Cross-zone route exists: west office to east office.
	w := u.Cell("off-1").BaseStation
	e := u.Cell("off-3").BaseStation
	r, err := env.Backbone.ShortestPath(w, e)
	if err != nil {
		t.Fatal(err)
	}
	if r.Hops() < 3 {
		t.Fatalf("cross-zone route suspiciously short: %v", r)
	}
}

// Property: on random connected graphs, ShortestPath returns a valid
// contiguous route whose endpoints match the query.
func TestQuickShortestPathContiguity(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		n := int(nRaw%12) + 2
		rng := randx.New(seed)
		b := NewBackbone()
		ids := make([]NodeID, n)
		for i := 0; i < n; i++ {
			ids[i] = NodeID(rune('a' + i))
			if _, err := b.AddNode(Node{ID: ids[i], Kind: KindSwitch}); err != nil {
				t.Fatal(err)
			}
		}
		// Spanning chain guarantees connectivity, then random extra edges.
		for i := 0; i+1 < n; i++ {
			if err := b.AddDuplex(Link{From: ids[i], To: ids[i+1], Capacity: 1, PropDelay: rng.Float64() * 1e-3}); err != nil {
				t.Fatal(err)
			}
		}
		for k := 0; k < n; k++ {
			i, j := rng.Intn(n), rng.Intn(n)
			if i == j || b.Link(ids[i], ids[j]) != nil {
				continue
			}
			if err := b.AddDuplex(Link{From: ids[i], To: ids[j], Capacity: 1, PropDelay: rng.Float64() * 1e-3}); err != nil {
				t.Fatal(err)
			}
		}
		src, dst := ids[rng.Intn(n)], ids[rng.Intn(n)]
		r, err := b.ShortestPath(src, dst)
		if err != nil {
			return false
		}
		if src == dst {
			return r.Hops() == 0
		}
		if r.Links[0].From != src || r.Dest() != dst {
			return false
		}
		for i := 0; i+1 < len(r.Links); i++ {
			if r.Links[i].To != r.Links[i+1].From {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestBuildGrid(t *testing.T) {
	env, err := BuildGrid(3, 4, 1.6e6)
	if err != nil {
		t.Fatal(err)
	}
	u := env.Universe
	if u.Len() != 3*4*2 {
		t.Fatalf("cells = %d, want 24", u.Len())
	}
	if got := len(u.Zones()); got != 3 {
		t.Fatalf("zones = %d, want 3", got)
	}
	// Offices hang off their corridor only.
	o := u.Cell("off-1-2")
	if len(o.Neighbors()) != 1 || o.Neighbors()[0] != "cor-1-2" {
		t.Fatalf("office neighbors = %v", o.Neighbors())
	}
	if !o.IsOccupant("occ-1-2") {
		t.Fatal("grid office lost its occupant")
	}
	// The floors connect through the stairwell: route across floors.
	r, err := env.Backbone.ShortestPath(u.Cell("off-0-3").BaseStation, u.Cell("off-2-3").BaseStation)
	if err != nil {
		t.Fatal(err)
	}
	if r.Hops() < 3 {
		t.Fatalf("cross-floor route too short: %v", r)
	}
	if err := u.validate(); err != nil {
		t.Fatal(err)
	}
	if _, err := BuildGrid(0, 4, 1); err == nil {
		t.Fatal("degenerate grid accepted")
	}
}

func TestEnvironmentFromJSON(t *testing.T) {
	spec := `{
	  "cells": [
	    {"id": "off-1", "class": "office", "zone": "west", "capacity": 1600000, "occupants": ["alice"]},
	    {"id": "hall", "class": "corridor", "zone": "west"},
	    {"id": "cafe", "class": "cafeteria"}
	  ],
	  "edges": [["off-1", "hall"], ["hall", "cafe"]],
	  "backbone": {"hosts": 2}
	}`
	env, err := EnvironmentFromJSON(strings.NewReader(spec))
	if err != nil {
		t.Fatal(err)
	}
	if env.Universe.Len() != 3 {
		t.Fatalf("cells = %d", env.Universe.Len())
	}
	if env.Universe.Cell("off-1").Class != ClassOffice || !env.Universe.Cell("off-1").IsOccupant("alice") {
		t.Fatal("office spec lost")
	}
	if env.Universe.Cell("hall").Capacity != 1.6e6 {
		t.Fatal("default capacity not applied")
	}
	if !env.Universe.Cell("hall").IsNeighbor("cafe") {
		t.Fatal("edge lost")
	}
	if len(env.Hosts) != 2 {
		t.Fatalf("hosts = %d", len(env.Hosts))
	}
}

func TestEnvironmentFromJSONErrors(t *testing.T) {
	cases := map[string]string{
		"empty":         `{"cells": []}`,
		"bad class":     `{"cells": [{"id": "x", "class": "castle"}]}`,
		"bad edge":      `{"cells": [{"id": "x"}], "edges": [["x", "ghost"]]}`,
		"unknown field": `{"cells": [{"id": "x"}], "wifi": true}`,
		"negative cap":  `{"cells": [{"id": "x", "capacity": -5}]}`,
		"dup cell":      `{"cells": [{"id": "x"}, {"id": "x"}]}`,
		// A negative wired delay once hung armsim; a loss above 1 blocked
		// every connection; negative hosts failed only later, in core.
		"negative delay":    `{"cells": [{"id": "x"}], "backbone": {"wiredDelay": -5}}`,
		"loss above one":    `{"cells": [{"id": "x"}], "backbone": {"wirelessLoss": 1.7}}`,
		"negative loss":     `{"cells": [{"id": "x"}], "backbone": {"wirelessLoss": -0.5}}`,
		"negative hosts":    `{"cells": [{"id": "x"}], "backbone": {"hosts": -1}}`,
		"negative capacity": `{"cells": [{"id": "x"}], "backbone": {"wiredCapacity": -1}}`,
	}
	for name, spec := range cases {
		if _, err := EnvironmentFromJSON(strings.NewReader(spec)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// TestAddLinkRejectsBadValues: a link's capacity must be positive, its
// delay finite and non-negative, and its loss a probability.
func TestAddLinkRejectsBadValues(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	for _, l := range []Link{
		{Capacity: 0}, {Capacity: -1}, {Capacity: nan},
		{Capacity: 1, PropDelay: -1e-3}, {Capacity: 1, PropDelay: nan}, {Capacity: 1, PropDelay: inf},
		{Capacity: 1, LossProb: -0.1}, {Capacity: 1, LossProb: 1.5}, {Capacity: 1, LossProb: nan},
	} {
		b := NewBackbone()
		for _, id := range []NodeID{"a", "b"} {
			if _, err := b.AddNode(Node{ID: id}); err != nil {
				t.Fatal(err)
			}
		}
		l.From, l.To = "a", "b"
		if err := b.addLink(l); err == nil {
			t.Errorf("link capacity %v, delay %v, loss %v accepted", l.Capacity, l.PropDelay, l.LossProb)
		}
	}
}

func TestSpecRoundTrip(t *testing.T) {
	env, err := BuildCampus()
	if err != nil {
		t.Fatal(err)
	}
	spec := SpecFromEnvironment(env)
	env2, err := BuildFromSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	if env2.Universe.Len() != env.Universe.Len() {
		t.Fatalf("round trip cells: %d vs %d", env2.Universe.Len(), env.Universe.Len())
	}
	for _, c := range env.Universe.Cells() {
		c2 := env2.Universe.Cell(c.ID)
		if c2 == nil || c2.Class != c.Class || c2.Zone != c.Zone {
			t.Fatalf("cell %s mangled: %+v vs %+v", c.ID, c2, c)
		}
		if len(c2.Neighbors()) != len(c.Neighbors()) {
			t.Fatalf("cell %s neighbor count differs", c.ID)
		}
	}
	if err := env2.Universe.validate(); err != nil {
		t.Fatal(err)
	}
}
