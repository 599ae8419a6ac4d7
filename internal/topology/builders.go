package topology

import "fmt"

// Environment bundles a cell universe with the backbone that serves it.
type Environment struct {
	Universe *Universe
	Backbone *Backbone
	// Hosts lists wired correspondent hosts added by the builder.
	Hosts []NodeID
}

// AirNode returns the synthetic node that models the air interface of a
// cell: the wireless hop of every connection in cell id is the link
// between the cell's base station and this node.
func AirNode(id CellID) NodeID { return NodeID("air-" + string(id)) }

// backboneOptions configures buildBackbone; it is also the "backbone"
// section of an EnvironmentSpec. buildBackbone refuses a negative host
// count, and addLink a link value out of range.
type backboneOptions struct {
	// WiredCapacity is the capacity of every wired link (default 10 Mb/s,
	// classic shared Ethernet of the paper's era).
	WiredCapacity float64 `json:"wiredCapacity,omitempty"`
	// WiredDelay is the propagation delay of every wired link in seconds
	// (default 1 ms).
	WiredDelay float64 `json:"wiredDelay,omitempty"`
	// WirelessLoss is the packet error probability of every wireless
	// link (default 0.01).
	WirelessLoss float64 `json:"wirelessLoss,omitempty"`
	// Hosts is the number of wired correspondent hosts attached to the
	// core switch (default 1).
	Hosts int `json:"hosts,omitempty"`
}

func (o backboneOptions) withDefaults() backboneOptions {
	if o.WiredCapacity == 0 {
		o.WiredCapacity = 10e6
	}
	if o.WiredDelay == 0 {
		o.WiredDelay = 1e-3
	}
	if o.WirelessLoss == 0 {
		o.WirelessLoss = 0.01
	}
	if o.Hosts == 0 {
		o.Hosts = 1
	}
	return o
}

// buildBackbone constructs the standard backbone for a universe: one core
// switch, one switch per zone, each cell's base station attached to its
// zone switch, and an air node per cell behind a wireless link of the
// cell's capacity. Wired hosts hang off the core switch.
func buildBackbone(u *Universe, opts backboneOptions) (*Backbone, []NodeID, error) {
	if opts.Hosts < 0 {
		return nil, nil, fmt.Errorf("topology: backbone host count %d is negative", opts.Hosts)
	}
	opts = opts.withDefaults()
	b := NewBackbone()
	core := NodeID("core")
	if _, err := b.AddNode(Node{ID: core, Kind: KindSwitch}); err != nil {
		return nil, nil, err
	}
	for _, zone := range u.Zones() {
		sw := NodeID("sw-" + zone)
		if _, err := b.AddNode(Node{ID: sw, Kind: KindSwitch}); err != nil {
			return nil, nil, err
		}
		if err := b.AddDuplex(Link{From: core, To: sw, Capacity: opts.WiredCapacity, PropDelay: opts.WiredDelay}); err != nil {
			return nil, nil, err
		}
		for _, cid := range u.Zone(zone) {
			cell := u.Cell(cid)
			if _, err := b.AddNode(Node{ID: cell.BaseStation, Kind: kindBaseStation, Cell: cid}); err != nil {
				return nil, nil, err
			}
			if err := b.AddDuplex(Link{From: sw, To: cell.BaseStation, Capacity: opts.WiredCapacity, PropDelay: opts.WiredDelay}); err != nil {
				return nil, nil, err
			}
			air := AirNode(cid)
			if _, err := b.AddNode(Node{ID: air, Kind: KindHost, Cell: cid}); err != nil {
				return nil, nil, err
			}
			cap := cell.Capacity
			if cap <= 0 {
				cap = 1.6e6
			}
			wl := Link{From: cell.BaseStation, To: air, Capacity: cap, Wireless: true, LossProb: opts.WirelessLoss}
			if err := b.AddDuplex(wl); err != nil {
				return nil, nil, err
			}
		}
	}
	var hosts []NodeID
	for i := 0; i < opts.Hosts; i++ {
		h := NodeID(fmt.Sprintf("host-%d", i))
		if _, err := b.AddNode(Node{ID: h, Kind: KindHost}); err != nil {
			return nil, nil, err
		}
		if err := b.AddDuplex(Link{From: core, To: h, Capacity: opts.WiredCapacity, PropDelay: opts.WiredDelay}); err != nil {
			return nil, nil, err
		}
		hosts = append(hosts, h)
	}
	return b, hosts, nil
}

// BuildFigure4 reconstructs the paper's Figure 4 indoor environment: the
// faculty office A, the student office B, and corridor cells C through G.
// Adjacency follows the measured handoff paths of §7.1:
//
//	C – D (main corridor), D – A (faculty office off the corridor),
//	D – E and E – B (student office around the corner),
//	D – F and D – G (corridor continuations).
//
// Every cell gets the paper's 1.6 Mb/s wireless throughput.
func BuildFigure4(faculty string, students []string) (*Environment, error) {
	u := newUniverse()
	const capacity = 1.6e6
	officeA := Cell{ID: "A", Class: ClassOffice, Capacity: capacity, Occupants: []string{faculty}}
	occupantsB := append(append([]string(nil), students...), faculty)
	officeB := Cell{ID: "B", Class: ClassOffice, Capacity: capacity, Occupants: occupantsB}
	if _, err := u.addCell(officeA); err != nil {
		return nil, err
	}
	if _, err := u.addCell(officeB); err != nil {
		return nil, err
	}
	for _, id := range []CellID{"C", "D", "E", "F", "G"} {
		if _, err := u.addCell(Cell{ID: id, Class: ClassCorridor, Capacity: capacity}); err != nil {
			return nil, err
		}
	}
	edges := [][2]CellID{
		{"C", "D"}, {"D", "A"}, {"D", "E"}, {"E", "B"}, {"D", "F"}, {"D", "G"},
	}
	for _, e := range edges {
		if err := u.connect(e[0], e[1]); err != nil {
			return nil, err
		}
	}
	if err := u.validate(); err != nil {
		return nil, err
	}
	b, hosts, err := buildBackbone(u, backboneOptions{})
	if err != nil {
		return nil, err
	}
	return &Environment{Universe: u, Backbone: b, Hosts: hosts}, nil
}

// BuildCorridor builds a linear chain of n corridor cells c0 – c1 – … –
// c(n-1), the canonical topology for linear-movement prediction tests.
func BuildCorridor(n int, capacity float64) (*Environment, error) {
	if n < 2 {
		return nil, fmt.Errorf("topology: corridor needs >= 2 cells, got %d", n)
	}
	u := newUniverse()
	for i := 0; i < n; i++ {
		id := CellID(fmt.Sprintf("c%d", i))
		if _, err := u.addCell(Cell{ID: id, Class: ClassCorridor, Capacity: capacity}); err != nil {
			return nil, err
		}
	}
	for i := 0; i+1 < n; i++ {
		a := CellID(fmt.Sprintf("c%d", i))
		b := CellID(fmt.Sprintf("c%d", i+1))
		if err := u.connect(a, b); err != nil {
			return nil, err
		}
	}
	b, hosts, err := buildBackbone(u, backboneOptions{})
	if err != nil {
		return nil, err
	}
	return &Environment{Universe: u, Backbone: b, Hosts: hosts}, nil
}

// BuildMeetingWing builds the meeting-room experiment topology of §7.1: a
// meeting room M (a large classroom with several exits) adjoining every
// segment of a corridor chain corr0 – corr1 – corr2, so corridor
// through-traffic passes the room without entering — the source of the
// brute-force algorithm's wasted reservations — and departing attendees
// spread over multiple neighbor cells.
func BuildMeetingWing(capacity float64) (*Environment, error) {
	u := newUniverse()
	cells := []Cell{
		{ID: "M", Class: ClassMeetingRoom, Capacity: capacity},
		{ID: "corr0", Class: ClassCorridor, Capacity: capacity},
		{ID: "corr1", Class: ClassCorridor, Capacity: capacity},
		{ID: "corr2", Class: ClassCorridor, Capacity: capacity},
	}
	for _, c := range cells {
		if _, err := u.addCell(c); err != nil {
			return nil, err
		}
	}
	for _, e := range [][2]CellID{{"corr0", "corr1"}, {"corr1", "corr2"}, {"corr0", "M"}, {"corr1", "M"}, {"corr2", "M"}} {
		if err := u.connect(e[0], e[1]); err != nil {
			return nil, err
		}
	}
	b, hosts, err := buildBackbone(u, backboneOptions{})
	if err != nil {
		return nil, err
	}
	return &Environment{Universe: u, Backbone: b, Hosts: hosts}, nil
}

// BuildCampus builds a larger mixed environment for integration tests and
// examples: two office wings along corridors, a cafeteria, a meeting room
// and a default lounge, split across two zones.
func BuildCampus() (*Environment, error) {
	u := newUniverse()
	const cap = 1.6e6
	add := func(c Cell) error {
		_, err := u.addCell(c)
		return err
	}
	cells := []Cell{
		{ID: "off-1", Class: ClassOffice, Zone: "west", Capacity: cap, Occupants: []string{"alice"}},
		{ID: "off-2", Class: ClassOffice, Zone: "west", Capacity: cap, Occupants: []string{"bob", "carol"}},
		{ID: "off-3", Class: ClassOffice, Zone: "east", Capacity: cap, Occupants: []string{"dave"}},
		{ID: "cor-w1", Class: ClassCorridor, Zone: "west", Capacity: cap},
		{ID: "cor-w2", Class: ClassCorridor, Zone: "west", Capacity: cap},
		{ID: "cor-e1", Class: ClassCorridor, Zone: "east", Capacity: cap},
		{ID: "meet", Class: ClassMeetingRoom, Zone: "east", Capacity: cap},
		{ID: "cafe", Class: ClassCafeteria, Zone: "east", Capacity: cap},
		{ID: "lounge", Class: ClassLoungeDefault, Zone: "west", Capacity: cap},
	}
	for _, c := range cells {
		if err := add(c); err != nil {
			return nil, err
		}
	}
	edges := [][2]CellID{
		{"off-1", "cor-w1"}, {"off-2", "cor-w1"}, {"cor-w1", "cor-w2"},
		{"cor-w2", "lounge"}, {"cor-w2", "cor-e1"}, {"cor-e1", "off-3"},
		{"cor-e1", "meet"}, {"cor-e1", "cafe"}, {"cafe", "lounge"},
	}
	for _, e := range edges {
		if err := u.connect(e[0], e[1]); err != nil {
			return nil, err
		}
	}
	if err := u.validate(); err != nil {
		return nil, err
	}
	b, hosts, err := buildBackbone(u, backboneOptions{Hosts: 2})
	if err != nil {
		return nil, err
	}
	return &Environment{Universe: u, Backbone: b, Hosts: hosts}, nil
}

// BuildGrid builds a rows×cols office-building floor: a grid of corridor
// cells with an office attached to every grid cell, split into one zone
// per row. It scales the experiments beyond the paper's seven-cell wing;
// cell names are "cor-r-c" and "off-r-c".
func BuildGrid(rows, cols int, capacity float64) (*Environment, error) {
	if rows < 1 || cols < 2 {
		return nil, fmt.Errorf("topology: grid needs rows >= 1 and cols >= 2, got %dx%d", rows, cols)
	}
	if capacity <= 0 {
		capacity = 1.6e6
	}
	u := newUniverse()
	cor := func(r, c int) CellID { return CellID(fmt.Sprintf("cor-%d-%d", r, c)) }
	off := func(r, c int) CellID { return CellID(fmt.Sprintf("off-%d-%d", r, c)) }
	for r := 0; r < rows; r++ {
		zone := fmt.Sprintf("floor-%d", r)
		for c := 0; c < cols; c++ {
			occupant := fmt.Sprintf("occ-%d-%d", r, c)
			if _, err := u.addCell(Cell{ID: cor(r, c), Class: ClassCorridor, Zone: zone, Capacity: capacity}); err != nil {
				return nil, err
			}
			if _, err := u.addCell(Cell{ID: off(r, c), Class: ClassOffice, Zone: zone, Capacity: capacity, Occupants: []string{occupant}}); err != nil {
				return nil, err
			}
			if err := u.connect(cor(r, c), off(r, c)); err != nil {
				return nil, err
			}
			if c > 0 {
				if err := u.connect(cor(r, c-1), cor(r, c)); err != nil {
					return nil, err
				}
			}
		}
		if r > 0 {
			// Stairwell between floors at column 0.
			if err := u.connect(cor(r-1, 0), cor(r, 0)); err != nil {
				return nil, err
			}
		}
	}
	if err := u.validate(); err != nil {
		return nil, err
	}
	b, hosts, err := buildBackbone(u, backboneOptions{Hosts: 2})
	if err != nil {
		return nil, err
	}
	return &Environment{Universe: u, Backbone: b, Hosts: hosts}, nil
}

// BuildNamed builds the environment the command-line tools know by name:
// campus, figure4 (the paper's office wing with its faculty member and
// three students), meetingwing, or corridor (six cells).
func BuildNamed(name string) (*Environment, error) {
	switch name {
	case "campus":
		return BuildCampus()
	case "figure4":
		return BuildFigure4("faculty", []string{"stu-a", "stu-b", "stu-c"})
	case "meetingwing":
		return BuildMeetingWing(1.6e6)
	case "corridor":
		return BuildCorridor(6, 1.6e6)
	default:
		return nil, fmt.Errorf("unknown topology %q", name)
	}
}
