package graph

import (
	"fmt"
	"sort"
)

// Builder incrementally assembles an EntityGraph. It is not safe for
// concurrent use. The zero value is ready to use.
//
// The usual flow is:
//
//	var b graph.Builder
//	film := b.Type("FILM")
//	actor := b.Type("FILM ACTOR")
//	act := b.RelType("Actor", actor, film)
//	will := b.Entity("Will Smith", actor)
//	mib := b.Entity("Men in Black", film)
//	b.Edge(will, mib, act)
//	g, err := b.Build()
type Builder struct {
	entities []Entity
	types    []EntityType
	relTypes []RelType
	edges    []Edge

	entityByName map[string]EntityID
	typeByName   map[string]TypeID
	relByKey     map[relKey]RelTypeID

	err error
}

type relKey struct {
	name     string
	from, to TypeID
}

// Type declares (or finds) the entity type with the given name and returns
// its id. Declaring the same name twice returns the same id.
func (b *Builder) Type(name string) TypeID {
	if b.typeByName == nil {
		b.typeByName = make(map[string]TypeID)
	}
	if id, ok := b.typeByName[name]; ok {
		return id
	}
	id := TypeID(len(b.types))
	b.types = append(b.types, EntityType{Name: name})
	b.typeByName[name] = id
	return id
}

// RelType declares (or finds) the relationship type with the given surface
// name from entity type from to entity type to, and returns its id. Two
// relationship types may share a surface name as long as their endpoint
// types differ (as in the paper's two "Award Winners" relationship types).
func (b *Builder) RelType(name string, from, to TypeID) RelTypeID {
	if b.relByKey == nil {
		b.relByKey = make(map[relKey]RelTypeID)
	}
	k := relKey{name, from, to}
	if id, ok := b.relByKey[k]; ok {
		return id
	}
	if int(from) >= len(b.types) || int(to) >= len(b.types) || from < 0 || to < 0 {
		b.fail(fmt.Errorf("relationship type %q: unknown endpoint type", name))
		return None
	}
	id := RelTypeID(len(b.relTypes))
	b.relTypes = append(b.relTypes, RelType{Name: name, From: from, To: to})
	b.relByKey[k] = id
	return id
}

// Entity declares the entity with the given name bearing the given types and
// returns its id. If the entity already exists, the types are merged into
// its type set. An entity must end up with at least one type by Build time.
func (b *Builder) Entity(name string, types ...TypeID) EntityID {
	if b.entityByName == nil {
		b.entityByName = make(map[string]EntityID)
	}
	id, ok := b.entityByName[name]
	if !ok {
		id = EntityID(len(b.entities))
		b.entities = append(b.entities, Entity{Name: name})
		b.entityByName[name] = id
	}
	for _, t := range types {
		if t < 0 || int(t) >= len(b.types) {
			b.fail(fmt.Errorf("entity %q: unknown type id %d", name, t))
			return id
		}
		b.addType(id, t)
	}
	return id
}

func (b *Builder) addType(e EntityID, t TypeID) {
	ts := b.entities[e].Types
	i := sort.Search(len(ts), func(i int) bool { return ts[i] >= t })
	if i < len(ts) && ts[i] == t {
		return
	}
	ts = append(ts, 0)
	copy(ts[i+1:], ts[i:])
	ts[i] = t
	b.entities[e].Types = ts
}

// Edge adds a directed relationship instance from entity from to entity to
// with relationship type rel. The endpoints automatically acquire the
// relationship type's endpoint entity types (the paper: "the type of a
// relationship determines the types of its two end entities").
func (b *Builder) Edge(from, to EntityID, rel RelTypeID) EdgeID {
	if b.err != nil {
		return None
	}
	if from < 0 || int(from) >= len(b.entities) || to < 0 || int(to) >= len(b.entities) {
		b.fail(fmt.Errorf("edge: endpoint out of range (from=%d, to=%d)", from, to))
		return None
	}
	if rel < 0 || int(rel) >= len(b.relTypes) {
		b.fail(fmt.Errorf("edge: unknown relationship type id %d", rel))
		return None
	}
	rt := b.relTypes[rel]
	b.addType(from, rt.From)
	b.addType(to, rt.To)
	b.relTypes[rel].EdgeCount++
	id := EdgeID(len(b.edges))
	b.edges = append(b.edges, Edge{From: from, To: to, Rel: rel})
	return id
}

func (b *Builder) fail(err error) {
	if b.err == nil {
		b.err = err
	}
}

// Build finalizes the graph: it hands the declared parts to Assemble,
// which computes per-type entity lists, the adjacency index and the
// schema-graph incidence lists, and returns the immutable EntityGraph. The
// builder must not be reused after Build.
func (b *Builder) Build() (*EntityGraph, error) {
	if b.err != nil {
		return nil, b.err
	}
	names := make([]string, len(b.types))
	for i, t := range b.types {
		names[i] = t.Name
	}
	return Assemble(names, b.relTypes, b.entities, b.edges)
}
