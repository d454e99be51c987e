// Package graph implements the data model of "Generating Preview Tables for
// Entity Graphs" (SIGMOD 2016): the entity graph Gd(Vd, Ed) — a directed
// multigraph of named entities connected by typed relationships — and the
// schema graph Gs(Vs, Es) uniquely derived from it, whose vertices are
// entity types and whose edges are relationship types.
//
// An entity may belong to one or more entity types. A relationship type
// determines the entity types of both of its endpoints, so two relationship
// types may share a surface name (e.g. "Award Winners" from FILM ACTOR to
// AWARD and from FILM DIRECTOR to AWARD) while remaining distinct.
//
// All identifiers are dense small integers suitable for array indexing.
// A graph is made once, by Assemble (directly, or through Builder), or,
// for each epoch of a live graph, by Derive from its predecessor (the
// first from the empty graph), and then queried many times without
// further allocation. Its adjacency is
// flat: one compressed sparse row index per direction, grouped by
// (entity, relationship type), so Neighbors is a binary search that
// returns a view into graph memory. Everything a graph hands out — entity
// type lists, per-type entity lists, neighbor sets — is shared and
// read-only.
package graph

import (
	"fmt"
	"slices"
	"strings"
	"sync"
)

// EntityID identifies an entity (a vertex of the entity graph Gd).
type EntityID int32

// TypeID identifies an entity type (a vertex of the schema graph Gs).
type TypeID int32

// RelTypeID identifies a relationship type (an edge of the schema graph Gs).
type RelTypeID int32

// EdgeID identifies a single relationship instance (an edge of Gd).
type EdgeID int32

// None is the sentinel for "no such vertex/edge".
const None = -1

// Entity is a vertex of the entity graph: a named entity belonging to one or
// more entity types.
type Entity struct {
	Name  string
	Types []TypeID // sorted, at least one
}

// EntityType is a vertex of the schema graph.
type EntityType struct {
	Name     string
	Entities []EntityID // entities bearing this type, sorted
}

// RelType is an edge of the schema graph: a relationship type from entity
// type From to entity type To. EdgeCount is the number of entity-graph edges
// bearing this type.
type RelType struct {
	Name      string
	From, To  TypeID
	EdgeCount int
}

// Edge is a single directed relationship instance in the entity graph.
type Edge struct {
	From, To EntityID
	Rel      RelTypeID
}

// EntityGraph is an immutable directed entity multigraph together with its
// uniquely determined schema graph. Construct one with a Builder, from
// canonical parts with Assemble, or from a live graph's previous snapshot
// with Derive. The zero EntityGraph is the empty graph.
type EntityGraph struct {
	entities []Entity
	types    []EntityType
	relTypes []RelType
	numEdges int

	// edges is the edge list, parallel copies included: the one part of a
	// graph made on first use. Assemble keeps the list it is given, as
	// Derive keeps the sorted batch of a graph without edges; any other
	// derived graph builds it from log (edgeList), which only checkpoints,
	// bootstraps and edge-list readers need.
	edgesOnce sync.Once
	edges     []Edge
	log       *edgeLog

	// out and in index each entity's outgoing and incoming neighbors: one
	// run of distinct neighbors per (entity, relationship type), in name
	// order.
	out adjacency
	in  adjacency

	// schema and names are the schema graph and the name order. Assemble
	// and Derive make both with the graph, so a reader never builds them.
	schema Schema
	names  NameOrder
}

// NumEntities returns |Vd|.
func (g *EntityGraph) NumEntities() int { return len(g.entities) }

// NumEdges returns |Ed|, parallel copies included.
func (g *EntityGraph) NumEdges() int { return g.numEdges }

// NumTypes returns |Vs|, the number of entity types.
func (g *EntityGraph) NumTypes() int { return len(g.types) }

// NumRelTypes returns |Es|, the number of relationship types.
func (g *EntityGraph) NumRelTypes() int { return len(g.relTypes) }

// Entity returns the entity with the given id.
func (g *EntityGraph) Entity(id EntityID) Entity { return g.entities[id] }

// EntityName returns the name of the entity with the given id.
func (g *EntityGraph) EntityName(id EntityID) string { return g.entities[id].Name }

// Type returns the entity type with the given id.
func (g *EntityGraph) Type(id TypeID) EntityType {
	t := g.types[id]
	t.Entities = capped(t.Entities)
	return t
}

// TypeName returns the name of the entity type with the given id.
func (g *EntityGraph) TypeName(id TypeID) string { return g.types[id].Name }

// RelType returns the relationship type with the given id.
func (g *EntityGraph) RelType(id RelTypeID) RelType { return g.relTypes[id] }

// Edge returns the edge with the given id.
func (g *EntityGraph) Edge(id EdgeID) Edge { return g.edgeList()[id] }

// edgeList returns the edge list, building a derived graph's on first use.
func (g *EntityGraph) edgeList() []Edge {
	g.edgesOnce.Do(func() {
		if g.log != nil {
			g.edges = g.log.build()
		}
	})
	return g.edges
}

// EntityByName resolves an entity by name, by binary search of the name
// order; ok is false if absent.
func (g *EntityGraph) EntityByName(name string) (EntityID, bool) {
	byRank := g.names.byRank
	r, ok := slices.BinarySearchFunc(byRank, name, func(e EntityID, name string) int {
		return strings.Compare(g.entities[e].Name, name)
	})
	if !ok {
		return None, false
	}
	return byRank[r], true
}

// TypeByName resolves an entity type by name, by a scan of the schema's
// type names; ok is false if absent.
func (g *EntityGraph) TypeByName(name string) (TypeID, bool) { return g.schema.TypeByName(name) }

// EntitiesOfType returns the entities bearing type t (shared slice; callers
// must not mutate it). Its capacity equals its length, so appending to it
// copies.
func (g *EntityGraph) EntitiesOfType(t TypeID) []EntityID { return capped(g.types[t].Entities) }

// capped returns s with its capacity cut to its length. A derived graph's
// per-type lists may have spare capacity that the next epoch's graph
// appends into, so no caller may append into it.
func capped(s []EntityID) []EntityID { return s[:len(s):len(s)] }

// TypeCoverage returns |{v in Vd : v has type t}| — the coverage-based score
// of t as a key attribute.
func (g *EntityGraph) TypeCoverage(t TypeID) int { return len(g.types[t].Entities) }

// IncidentRelTypes returns all relationship types incident on t (outgoing
// then incoming, each in id order), as the schema's Incident lists them.
// These are the candidate non-key attributes Γτ of a preview table keyed
// by t. The returned slice is freshly allocated.
func (g *EntityGraph) IncidentRelTypes(t TypeID) []RelTypeID {
	incs := g.schema.Incident(t)
	rs := make([]RelTypeID, len(incs))
	for i, inc := range incs {
		rs[i] = inc.Rel
	}
	return rs
}

// HasType reports whether entity e bears type t.
func (g *EntityGraph) HasType(e EntityID, t TypeID) bool {
	_, ok := slices.BinarySearch(g.entities[e].Types, t)
	return ok
}

// Neighbors returns, for entity e and relationship type rel, the set of
// related entities as mandated by Definition 1:
//
//   - if outgoing is true, the entities u with an edge e(v, u) of type rel
//     (rel.From must be a type of v);
//   - otherwise the entities u with an edge e(u, v) of type rel.
//
// The result is in byte-wise name order, the graph's NameOrder, whatever
// order the edges came in, and contains no duplicates: the order every
// renderer shows a multi-valued cell in. It is a view into the graph's
// adjacency index, found by binary search without allocating: shared;
// callers must not mutate it. Its capacity equals its length, so
// appending to it copies. An empty set is nil.
func (g *EntityGraph) Neighbors(e EntityID, rel RelTypeID, outgoing bool) []EntityID {
	if outgoing {
		return g.out.run(e, rel)
	}
	return g.in.run(e, rel)
}

// Stats summarizes a graph in the shape of the paper's Table 2 row:
// entity-graph size and schema-graph size.
type Stats struct {
	Entities int // |Vd|
	Edges    int // |Ed|
	Types    int // |Vs|
	RelTypes int // |Es|
}

// Stats returns size statistics for g.
func (g *EntityGraph) Stats() Stats {
	return Stats{
		Entities: len(g.entities),
		Edges:    g.numEdges,
		Types:    len(g.types),
		RelTypes: len(g.relTypes),
	}
}

// String renders the stats in a Table 2-like "entities/types  edges/reltypes"
// form, e.g. "2000000 / 63 vertices, 18000000 / 136 edges".
func (s Stats) String() string {
	return fmt.Sprintf("%d / %d vertices, %d / %d edges", s.Entities, s.Types, s.Edges, s.RelTypes)
}

// Validate checks internal consistency of the graph: every edge's endpoints
// exist and bear the endpoint types declared by the edge's relationship
// type, every type's entity list is sorted and deduplicated, and the
// schema-graph edge counts equal the actual number of entity-graph edges of
// each relationship type. It is intended for tests; Assemble checks the
// same conditions, and Derive extends a valid graph by a batch a live
// graph has already checked, so every graph validates.
func (g *EntityGraph) Validate() error {
	edges := g.edgeList()
	if len(edges) != g.numEdges {
		return fmt.Errorf("edge list holds %d edges, NumEdges says %d", len(edges), g.numEdges)
	}
	counts := make([]int, len(g.relTypes))
	for i, e := range edges {
		if e.From < 0 || int(e.From) >= len(g.entities) || e.To < 0 || int(e.To) >= len(g.entities) {
			return fmt.Errorf("edge %d: endpoint out of range", i)
		}
		if e.Rel < 0 || int(e.Rel) >= len(g.relTypes) {
			return fmt.Errorf("edge %d: relationship type out of range", i)
		}
		rt := g.relTypes[e.Rel]
		if !g.HasType(e.From, rt.From) {
			return fmt.Errorf("edge %d: source %q lacks type %q required by relationship %q",
				i, g.entities[e.From].Name, g.types[rt.From].Name, rt.Name)
		}
		if !g.HasType(e.To, rt.To) {
			return fmt.Errorf("edge %d: target %q lacks type %q required by relationship %q",
				i, g.entities[e.To].Name, g.types[rt.To].Name, rt.Name)
		}
		counts[e.Rel]++
	}
	for i, rt := range g.relTypes {
		if rt.EdgeCount != counts[i] {
			return fmt.Errorf("relationship type %q: recorded edge count %d != actual %d",
				rt.Name, rt.EdgeCount, counts[i])
		}
		if rt.From < 0 || int(rt.From) >= len(g.types) || rt.To < 0 || int(rt.To) >= len(g.types) {
			return fmt.Errorf("relationship type %q: endpoint type out of range", rt.Name)
		}
	}
	for ti, t := range g.types {
		for j := 1; j < len(t.Entities); j++ {
			if t.Entities[j-1] >= t.Entities[j] {
				return fmt.Errorf("type %q: entity list not strictly sorted", t.Name)
			}
		}
		for _, e := range t.Entities {
			if !g.HasType(e, TypeID(ti)) {
				return fmt.Errorf("type %q: listed entity %q does not bear it", t.Name, g.entities[e].Name)
			}
		}
	}
	for ei, ent := range g.entities {
		if len(ent.Types) == 0 {
			return fmt.Errorf("entity %q (%d) has no type", ent.Name, ei)
		}
		for j := 1; j < len(ent.Types); j++ {
			if ent.Types[j-1] >= ent.Types[j] {
				return fmt.Errorf("entity %q: type list not strictly sorted", ent.Name)
			}
		}
	}
	return nil
}
