package testnet

import (
	"sort"

	"armnet/internal/topology"
)

// Cluster partitions a backbone's links among node agents: one agent per
// zone (owning the zone switch's subtree — base stations and air
// interfaces) plus a core agent for everything else (core↔zone trunks,
// wired hosts).
type Cluster struct {
	// Names lists the agents in deterministic order, core first; an
	// agent's index in it is how the routing and transports address it.
	Names []string
	owner map[topology.LinkID]int
}

// CoreAgent owns every link not claimed by a zone.
const CoreAgent = "core"

// NewCluster derives the agent partition from the environment.
func NewCluster(env *topology.Environment) *Cluster {
	c := &Cluster{owner: make(map[topology.LinkID]int)}
	zones := append([]string(nil), env.Universe.Zones()...)
	sort.Strings(zones)
	zoneOf := make(map[topology.NodeID]string)
	for _, zone := range zones {
		zoneOf[topology.NodeID("sw-"+zone)] = zone
		for _, cid := range env.Universe.Zone(zone) {
			zoneOf[env.Universe.Cell(cid).BaseStation] = zone
			zoneOf[topology.AirNode(cid)] = zone
		}
	}
	// A link belongs to the deeper endpoint's zone: the trunk core↔sw-west
	// touches sw-west, so west owns it; purely central links (core↔host)
	// fall to the core agent.
	links := env.Backbone.Links()
	owner := make([]string, len(links))
	names := map[string]bool{}
	for i, l := range links {
		owner[i] = CoreAgent
		if z, ok := zoneOf[l.To]; ok {
			owner[i] = z
		} else if z, ok := zoneOf[l.From]; ok {
			owner[i] = z
		}
		if owner[i] != CoreAgent {
			names[owner[i]] = true
		}
	}
	rest := make([]string, 0, len(names))
	for n := range names {
		rest = append(rest, n)
	}
	sort.Strings(rest)
	c.Names = append([]string{CoreAgent}, rest...)
	for i, l := range links {
		c.owner[l.ID], _ = c.Index(owner[i])
	}
	return c
}

// Agent returns the index in Names of the agent owning a link (core for
// unknown links, so a misrouted frame still lands somewhere observable).
func (c *Cluster) Agent(link topology.LinkID) int {
	return c.owner[link] // the zero value is the core agent's index
}

// Index returns an agent's index in Names.
func (c *Cluster) Index(name string) (int, bool) {
	for i, n := range c.Names {
		if n == name {
			return i, true
		}
	}
	return 0, false
}
