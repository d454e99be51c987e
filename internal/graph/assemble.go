package graph

import (
	"fmt"
	"math"
	"slices"
)

// adjacency is one direction of an entity graph's adjacency, in compressed
// sparse row form. The entries of entity e are start[e] up to start[e+1],
// sorted by relationship type; the entries of one (entity, relationship
// type) run hold the distinct other endpoints of e's edges of that type,
// in the order of their first edge.
type adjacency struct {
	start []int32     // one offset per entity, plus the end
	rel   []RelTypeID // per entry
	nbr   []EntityID  // per entry
}

// run returns the (e, rel) run: a shared view, capped at its length.
func (a *adjacency) run(e EntityID, rel RelTypeID) []EntityID {
	lo, hi := int(a.start[e]), int(a.start[e+1])
	rels := a.rel[lo:hi]
	i, found := slices.BinarySearch(rels, rel)
	if !found {
		return nil
	}
	n, _ := slices.BinarySearch(rels[i:], rel+1)
	lo += i
	return a.nbr[lo : lo+n : lo+n]
}

// Assemble makes an entity graph from its parts, its name order and its
// schema graph included; it is the one place an EntityGraph is made from
// scratch (Derive extends one). The parts must be
// in canonical form, the form Builder.Build produces and storage snapshots
// record:
//
//   - type names are unique;
//   - every relationship type's endpoint types exist, and no two share
//     a (name, from, to) key;
//   - entity names are unique;
//   - every entity's type list is non-empty and strictly ascending;
//   - every edge's endpoints and relationship type exist, and each
//     endpoint bears its relationship type's endpoint type.
//
// Assemble reports the first violation as an error. It takes ownership of
// its arguments: it sets each relationship type's EdgeCount from edges,
// and the graph keeps the slices, so the caller must not touch them
// afterwards.
func Assemble(types []string, rels []RelType, entities []Entity, edges []Edge) (*EntityGraph, error) {
	if len(entities) >= math.MaxInt32 || len(edges) >= math.MaxInt32 {
		return nil, fmt.Errorf("graph: %d entities, %d edges exceed the int32 layout", len(entities), len(edges))
	}
	g := &EntityGraph{
		types:    make([]EntityType, len(types)),
		relTypes: rels,
		entities: entities,
		edges:    edges,
		numEdges: len(edges),
	}
	typeNames := make(map[string]struct{}, len(types))
	for i, name := range types {
		if typeNames[name] = struct{}{}; len(typeNames) != i+1 {
			return nil, fmt.Errorf("graph: duplicate type %q", name)
		}
		g.types[i].Name = name
	}
	relKeys := make(map[relKey]struct{}, len(rels))
	for i := range rels {
		r := &rels[i]
		if r.From < 0 || int(r.From) >= len(types) || r.To < 0 || int(r.To) >= len(types) {
			return nil, fmt.Errorf("graph: relationship type %q: endpoint type out of range", r.Name)
		}
		if relKeys[relKey{r.Name, r.From, r.To}] = struct{}{}; len(relKeys) != i+1 {
			return nil, fmt.Errorf("graph: duplicate relationship type %q(%s, %s)", r.Name, types[r.From], types[r.To])
		}
		r.EdgeCount = 0
	}
	typeCount := make([]int32, len(types)+1)
	for i := range entities {
		ent := &entities[i]
		if len(ent.Types) == 0 {
			return nil, fmt.Errorf("graph: entity %q has no type", ent.Name)
		}
		for j, t := range ent.Types {
			if t < 0 || int(t) >= len(types) {
				return nil, fmt.Errorf("graph: entity %q: type id %d out of range", ent.Name, t)
			}
			if j > 0 && ent.Types[j-1] >= t {
				return nil, fmt.Errorf("graph: entity %q: type list not strictly ascending", ent.Name)
			}
			typeCount[t+1]++
		}
	}
	for i, ed := range edges {
		if ed.From < 0 || int(ed.From) >= len(entities) || ed.To < 0 || int(ed.To) >= len(entities) {
			return nil, fmt.Errorf("graph: edge %d: endpoint out of range", i)
		}
		if ed.Rel < 0 || int(ed.Rel) >= len(rels) {
			return nil, fmt.Errorf("graph: edge %d: relationship type out of range", i)
		}
		rt := &rels[ed.Rel]
		if !g.HasType(ed.From, rt.From) || !g.HasType(ed.To, rt.To) {
			return nil, fmt.Errorf("graph: edge %d: an endpoint lacks the type relationship %q requires", i, rt.Name)
		}
		rt.EdgeCount++
	}

	// The name order: a duplicate name sorts next to its twin.
	byRank := make([]EntityID, len(entities))
	for i := range byRank {
		byRank[i] = EntityID(i)
	}
	sortByName(entities, byRank)
	for r := 1; r < len(byRank); r++ {
		if name := entities[byRank[r]].Name; name == entities[byRank[r-1]].Name {
			return nil, fmt.Errorf("graph: duplicate entity %q", name)
		}
	}
	g.names = orderOf(byRank)

	// Per-type entity lists, ascending, cut from one slab.
	for t := range types {
		typeCount[t+1] += typeCount[t]
	}
	members := make([]EntityID, typeCount[len(types)])
	for t := range g.types {
		lo, hi := typeCount[t], typeCount[t+1]
		g.types[t].Entities = members[lo:lo:hi]
	}
	for i := range entities {
		for _, t := range entities[i].Types {
			g.types[t].Entities = append(g.types[t].Entities, EntityID(i))
		}
	}

	// Edge ids ordered by relationship type, stably: the first of the two
	// counting passes behind each direction's layout.
	relStart := make([]int32, len(rels)+1)
	for i := range rels {
		relStart[i+1] = relStart[i] + int32(rels[i].EdgeCount)
	}
	byRel := make([]int32, len(edges))
	for i, ed := range edges {
		byRel[relStart[ed.Rel]] = int32(i)
		relStart[ed.Rel]++
	}
	mark := make([]uint32, len(entities))
	var stamp uint32
	g.out = layout(len(entities), edges, byRel, true, mark, &stamp)
	g.in = layout(len(entities), edges, byRel, false, mark, &stamp)

	g.schema = schemaOf(g.types, rels)
	return g, nil
}

// layout builds one direction's adjacency: outgoing lists each edge under
// its source, otherwise under its target. byRel orders the edges by
// relationship type, so the second, stable counting pass, by entity,
// leaves every entity's entries sorted by (relationship type, edge id); a
// last pass keeps the first entry of each other endpoint in its run.
// mark and stamp tell which endpoints a run has kept: mark[v] == *stamp
// after v is kept, and every run takes a fresh stamp.
func layout(n int, edges []Edge, byRel []int32, outgoing bool, mark []uint32, stamp *uint32) adjacency {
	// Counts land two slots up, so after the prefix sum start[e+1] is e's
	// offset; filling advances it to e's end, which is e+1's offset.
	start := make([]int32, n+2)
	for _, ed := range edges {
		e := ed.To
		if outgoing {
			e = ed.From
		}
		start[e+2]++
	}
	for i := 2; i < len(start); i++ {
		start[i] += start[i-1]
	}
	rel := make([]RelTypeID, len(edges))
	nbr := make([]EntityID, len(edges))
	for _, id := range byRel {
		ed := edges[id]
		e, other := ed.To, ed.From
		if outgoing {
			e, other = ed.From, ed.To
		}
		p := start[e+1]
		start[e+1]++
		rel[p], nbr[p] = ed.Rel, other
	}
	start = start[:n+1]

	var w int32
	for e := 0; e < n; e++ {
		lo, hi := start[e], start[e+1]
		start[e] = w
		for i := lo; i < hi; {
			r := rel[i]
			*stamp++
			for ; i < hi && rel[i] == r; i++ {
				if v := nbr[i]; mark[v] != *stamp {
					mark[v] = *stamp
					rel[w], nbr[w] = r, v
					w++
				}
			}
		}
	}
	start[n] = w
	if int(w) < len(edges) {
		// The arrays have one slot per edge: copy them to exact length, or
		// a multigraph would hold 8 B per parallel copy for its lifetime.
		rel = append(make([]RelTypeID, 0, w), rel[:w]...)
		nbr = append(make([]EntityID, 0, w), nbr[:w]...)
	}
	return adjacency{start: start, rel: rel[:w:w], nbr: nbr[:w:w]}
}
