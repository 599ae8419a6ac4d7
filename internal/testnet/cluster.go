package testnet

import (
	"fmt"
	"sort"

	"armnet/internal/faults"
	"armnet/internal/topology"
)

// clusterNet partitions a backbone's links among node agents: one agent per
// zone (owning the zone switch's subtree — base stations and air
// interfaces) plus a core agent for everything else (core↔zone trunks,
// wired hosts).
type clusterNet struct {
	// Names lists the agents in deterministic order, core first; an
	// agent's index in it is how the transports address it.
	Names []string
	owner map[string]int
}

// coreAgent owns every link not claimed by a zone.
const coreAgent = "core"

// NewCluster derives the agent partition from the environment.
func NewCluster(env *topology.Environment) *clusterNet {
	c := &clusterNet{owner: make(map[string]int)}
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
		owner[i] = coreAgent
		if z, ok := zoneOf[l.To]; ok {
			owner[i] = z
		} else if z, ok := zoneOf[l.From]; ok {
			owner[i] = z
		}
		if owner[i] != coreAgent {
			names[owner[i]] = true
		}
	}
	rest := make([]string, 0, len(names))
	for n := range names {
		rest = append(rest, n)
	}
	sort.Strings(rest)
	c.Names = append([]string{coreAgent}, rest...)
	for i, l := range links {
		c.owner[string(l.ID)], _ = c.index(owner[i])
	}
	return c
}

// agent returns the index in Names of the agent owning a link (core for
// unknown links, so a misrouted frame still lands somewhere observable).
func (c *clusterNet) agent(link string) int {
	return c.owner[link] // the zero value is the core agent's index
}

// checkPlan refuses a rule filtered to a link no agent owns: no frame
// crosses it, so the rule would never fire and a chaos run would go clean.
// A nil plan has no rules.
func (c *clusterNet) checkPlan(p *faults.Plan) error {
	if p == nil {
		return nil
	}
	for _, r := range p.Rules {
		if _, ok := c.owner[r.Link]; r.Link != "" && !ok {
			return fmt.Errorf("testnet: fault plan: %s %s rule on unknown link %q", r.Action, r.Proto, r.Link)
		}
	}
	return nil
}

// index returns an agent's index in Names.
func (c *clusterNet) index(name string) (int, bool) {
	for i, n := range c.Names {
		if n == name {
			return i, true
		}
	}
	return 0, false
}
