package topology

import (
	"encoding/json"
	"fmt"
	"io"
)

// EnvironmentSpec is the JSON schema for describing a custom environment
// (see cmd/armsim -topology-file). Example:
//
//	{
//	  "cells": [
//	    {"id": "off-1", "class": "office", "zone": "west",
//	     "capacity": 1600000, "occupants": ["alice"]},
//	    {"id": "hall", "class": "corridor", "zone": "west"}
//	  ],
//	  "edges": [["off-1", "hall"]],
//	  "backbone": {"wiredCapacity": 10000000, "hosts": 2}
//	}
type EnvironmentSpec struct {
	Cells    []cellSpec      `json:"cells"`
	Edges    [][2]string     `json:"edges"`
	Backbone backboneOptions `json:"backbone"`
}

// cellSpec describes one cell.
type cellSpec struct {
	ID        string   `json:"id"`
	Class     string   `json:"class"`
	Zone      string   `json:"zone,omitempty"`
	Capacity  float64  `json:"capacity,omitempty"`
	Occupants []string `json:"occupants,omitempty"`
}

// parseClass maps a JSON class name to a Class. Unknown or empty strings
// map to ClassUnknown with ok=false for anything not recognized.
func parseClass(s string) (Class, bool) {
	switch s {
	case "", "unknown":
		return ClassUnknown, true
	case "office":
		return ClassOffice, true
	case "corridor":
		return ClassCorridor, true
	case "meeting-room":
		return ClassMeetingRoom, true
	case "cafeteria":
		return ClassCafeteria, true
	case "lounge-default", "lounge":
		return ClassLoungeDefault, true
	default:
		return ClassUnknown, false
	}
}

// EnvironmentFromJSON reads a spec and builds the environment: universe,
// neighbor edges, and the standard backbone.
func EnvironmentFromJSON(r io.Reader) (*Environment, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var spec EnvironmentSpec
	if err := dec.Decode(&spec); err != nil {
		return nil, fmt.Errorf("topology: parsing spec: %w", err)
	}
	return BuildFromSpec(spec)
}

// BuildFromSpec constructs the environment from a parsed spec.
func BuildFromSpec(spec EnvironmentSpec) (*Environment, error) {
	if len(spec.Cells) == 0 {
		return nil, fmt.Errorf("topology: spec has no cells")
	}
	u := newUniverse()
	for i, cs := range spec.Cells {
		class, ok := parseClass(cs.Class)
		if !ok {
			return nil, fmt.Errorf("topology: cell %d (%s): unknown class %q", i, cs.ID, cs.Class)
		}
		cap := cs.Capacity
		if cap == 0 {
			cap = 1.6e6
		}
		if cap < 0 {
			return nil, fmt.Errorf("topology: cell %s: negative capacity", cs.ID)
		}
		if _, err := u.addCell(Cell{
			ID:        CellID(cs.ID),
			Class:     class,
			Zone:      cs.Zone,
			Capacity:  cap,
			Occupants: cs.Occupants,
		}); err != nil {
			return nil, err
		}
	}
	for i, e := range spec.Edges {
		if err := u.connect(CellID(e[0]), CellID(e[1])); err != nil {
			return nil, fmt.Errorf("topology: edge %d: %w", i, err)
		}
	}
	if err := u.validate(); err != nil {
		return nil, err
	}
	b, hosts, err := buildBackbone(u, spec.Backbone)
	if err != nil {
		return nil, err
	}
	return &Environment{Universe: u, Backbone: b, Hosts: hosts}, nil
}

// SpecFromEnvironment exports a universe back to a spec (round-trip
// support for tooling; the backbone section carries only the host count,
// since per-link parameters are uniform in built environments).
func SpecFromEnvironment(env *Environment) EnvironmentSpec {
	spec := EnvironmentSpec{Backbone: backboneOptions{Hosts: len(env.Hosts)}}
	seen := map[[2]string]bool{}
	for _, c := range env.Universe.Cells() {
		spec.Cells = append(spec.Cells, cellSpec{
			ID:        string(c.ID),
			Class:     c.Class.String(),
			Zone:      c.Zone,
			Capacity:  c.Capacity,
			Occupants: c.Occupants,
		})
		for _, n := range c.Neighbors() {
			a, b := string(c.ID), string(n)
			if a > b {
				a, b = b, a
			}
			k := [2]string{a, b}
			if !seen[k] {
				seen[k] = true
				spec.Edges = append(spec.Edges, k)
			}
		}
	}
	return spec
}
