package graph

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"
)

// Delta is what one write batch added to a live entity graph since the
// graph Derive extends: the form a mutable graph records it in.
type Delta struct {
	// Types names the entity types declared since, in id order.
	Types []string
	// Rels is every relationship type, old and new, in id order, with an
	// EdgeCount that counts every parallel copy.
	Rels []RelType
	// Entities are the entities declared since, in id order, each with its
	// whole type list.
	Entities []Entity
	// Retyped are older entities whose type lists grew, in ascending id
	// order.
	Retyped []Retype
	// Edges is every edge the batch added, parallel copies included, in
	// any order. A triple may repeat, and the graph Derive extends may
	// already hold it.
	Edges []Edge
}

// Retype is an older entity's whole type list after a batch added to it.
type Retype struct {
	Entity EntityID
	Types  []TypeID // strictly ascending, a superset of the old list
}

// Derive makes the graph that prev becomes with d applied, the way a live
// graph makes each snapshot's. prev may be any graph, the empty graph
// (the zero EntityGraph) included; d must be the batch since prev, with no
// edge that breaks the data model. Then the result equals Assemble of the
// whole state: the same entities, per-type lists, neighbor runs, counts,
// name order and schema graph. Its edge list is prev's with the batch's
// edges merged in canonical order (relationship type, source, target), so
// it is Assemble's in canonical edge order when prev's is, as every live
// graph's is.
//
// Derive checks only what the batch declares: a new entity without a
// type is an error, as in Assemble. It validates, hashes, sorts and maps
// nothing of prev. Entity records, their names and per-type entity lists
// are shared with prev or appended to (prev keeps its own lengths);
// a per-type list the batch inserts into is copied, and a batch that
// retypes an older entity copies the table of entity records. Derive
// copies the type and relationship-type tables, merges the batch's new
// names into prev's name order (sharing it when the batch declares no
// entity), sorts the batch's edges, drops repeated triples and those prev
// holds, rebuilds each direction of the adjacency by one merge of prev's
// with the new triples, each placed in its run by rank, and builds the
// schema graph. It leaves only the edge list to be built on first use,
// except that a graph derived from one without edges keeps the sorted
// batch as its edge list. It keeps no slice of d.
func Derive(prev *EntityGraph, d Delta) (*EntityGraph, error) {
	nEnts := len(prev.entities) + len(d.Entities)
	nEdges := prev.numEdges + len(d.Edges)
	if nEnts >= math.MaxInt32 || nEdges >= math.MaxInt32 {
		return nil, fmt.Errorf("graph: %d entities, %d edges exceed the int32 layout", nEnts, nEdges)
	}
	slabLen := 0
	for _, ent := range d.Entities {
		if len(ent.Types) == 0 {
			return nil, fmt.Errorf("graph: entity %q has no type", ent.Name)
		}
		slabLen += len(ent.Types)
	}
	for _, r := range d.Retyped {
		slabLen += len(r.Types)
	}
	g := &EntityGraph{
		relTypes: slices.Clone(d.Rels),
		numEdges: nEdges,
	}

	// Entity records. An older record that changes is copied with the
	// table, so prev's readers never see it change; otherwise new records
	// append to the shared table.
	g.entities = prev.entities
	if len(d.Retyped) > 0 {
		g.entities = append(make([]Entity, 0, nEnts), prev.entities...)
	}
	slab := make([]TypeID, 0, slabLen)
	own := func(ts []TypeID) []TypeID {
		off := len(slab)
		slab = append(slab, ts...)
		return slab[off:len(slab):len(slab)]
	}
	g.types = make([]EntityType, len(prev.types)+len(d.Types))
	copy(g.types, prev.types)
	for i, name := range d.Types {
		g.types[len(prev.types)+i] = EntityType{Name: name}
	}
	joined := make([][]EntityID, len(g.types)) // per type, ascending
	for _, r := range d.Retyped {
		old := prev.entities[r.Entity].Types
		for _, t := range r.Types {
			if _, ok := slices.BinarySearch(old, t); !ok {
				joined[t] = append(joined[t], r.Entity)
			}
		}
		g.entities[r.Entity].Types = own(r.Types)
	}
	for i, ent := range d.Entities {
		id := EntityID(len(prev.entities) + i)
		g.entities = append(g.entities, Entity{Name: ent.Name, Types: own(ent.Types)})
		for _, t := range ent.Types {
			joined[t] = append(joined[t], id)
		}
	}
	for t, ids := range joined {
		if len(ids) == 0 {
			continue
		}
		list := g.types[t].Entities
		if len(list) == 0 || list[len(list)-1] < ids[0] {
			g.types[t].Entities = append(list, ids...)
		} else {
			g.types[t].Entities = mergeIDs(list, ids)
		}
	}

	g.names = prev.names.extend(g.entities)
	g.schema = schemaOf(g.types, g.relTypes)

	// The batch's new distinct triples are the entries each direction
	// gains: dropping the rest before the per-direction sorts keeps a
	// batch of parallel copies, or a whole graph's first batch, cheap.
	// The new order only inserts the batch's names between the old ones,
	// so prev's runs, in prev's order, are in the new order too.
	known := len(prev.entities)
	edges := slices.Clone(d.Edges)
	slices.SortFunc(edges, compareEdges)
	out := make([]entry, 0, len(edges))
	in := make([]entry, 0, len(edges))
	for i, ed := range edges {
		if i > 0 && ed == edges[i-1] || int(ed.From) < known && int(ed.To) < known && prev.out.has(ed.From, ed.Rel, ed.To, prev.names.rank) {
			continue
		}
		out = append(out, entry{ed.From, ed.Rel, ed.To})
		in = append(in, entry{ed.To, ed.Rel, ed.From})
	}
	rank := g.names.rank
	byRank := func(a, b entry) int {
		if c := cmp.Compare(a.e, b.e); c != 0 {
			return c
		}
		if c := cmp.Compare(a.rel, b.rel); c != 0 {
			return c
		}
		return cmp.Compare(rank[a.other], rank[b.other])
	}
	slices.SortFunc(out, byRank)
	slices.SortFunc(in, byRank)
	g.out = prev.out.merge(nEnts, out, rank)
	g.in = prev.in.merge(nEnts, in, rank)

	// prev.edges is read only when Assemble or Derive set it at
	// construction: otherwise it is written by prev's first reader.
	switch {
	case prev.numEdges == 0:
		g.edges = edges
	case prev.log != nil:
		g.log = &edgeLog{base: prev.log.base, added: append(prev.log.added, edges...)}
	default:
		g.log = &edgeLog{base: prev.edges, added: edges}
	}
	return g, nil
}

// mergeIDs merges two ascending, disjoint id lists into a new one.
func mergeIDs(a, b []EntityID) []EntityID {
	out := make([]EntityID, 0, len(a)+len(b))
	for len(a) > 0 && len(b) > 0 {
		if a[0] < b[0] {
			out, a = append(out, a[0]), a[1:]
		} else {
			out, b = append(out, b[0]), b[1:]
		}
	}
	return append(append(out, a...), b...)
}

// entry is one adjacency entry as a batch adds it: e's run of
// relationship type rel gains other.
type entry struct {
	e     EntityID
	rel   RelTypeID
	other EntityID
}

// has reports whether e's run of rel holds other, by binary search of
// the run by rank in the name order the run is in.
func (a *adjacency) has(e EntityID, rel RelTypeID, other EntityID, rank []int32) bool {
	run := a.run(e, rel)
	i := sort.Search(len(run), func(j int) bool { return rank[run[j]] >= rank[other] })
	return i < len(run) && run[i] == other
}

// merge returns a over n entities (at least a's) with es inserted: es are
// new entries, none already in a, sorted by entity, relationship type and
// the rank of the other endpoint. Each lands in its run after the other
// endpoints of smaller rank, so runs in name order stay in name order.
// a's entries move in block copies between the insertions.
func (a *adjacency) merge(n int, es []entry, rank []int32) adjacency {
	if len(a.start) == 0 { // the empty graph's
		a = &adjacency{start: []int32{0}}
	}
	old := len(a.start) - 1
	at := func(e int) int { return int(a.start[min(e, old)]) }
	m := len(a.nbr) + len(es)
	out := adjacency{start: make([]int32, n+1), rel: make([]RelTypeID, m), nbr: make([]EntityID, m)}
	e, src := 0, 0 // out.start[:e] is set; a's entries before src are copied
	for i, x := range es {
		for ; e <= int(x.e); e++ {
			out.start[e] = int32(at(e) + i)
		}
		lo, hi := at(int(x.e)), at(int(x.e)+1)
		p := lo + sort.Search(hi-lo, func(j int) bool {
			r := a.rel[lo+j]
			return r > x.rel || r == x.rel && rank[a.nbr[lo+j]] > rank[x.other]
		})
		copy(out.rel[src+i:], a.rel[src:p])
		copy(out.nbr[src+i:], a.nbr[src:p])
		out.rel[p+i], out.nbr[p+i] = x.rel, x.other
		src = p
	}
	for ; e <= n; e++ {
		out.start[e] = int32(at(e) + len(es))
	}
	copy(out.rel[src+len(es):], a.rel[src:])
	copy(out.nbr[src+len(es):], a.nbr[src:])
	return out
}

// edgeLog is where a derived graph's edge list comes from: the edge list
// of the graph its chain of derivations started from, in canonical order
// (relationship type, source, target), and every edge added since,
// parallel copies included, each batch's in that order. Each derivation
// appends to added; an older graph keeps its own length.
type edgeLog struct {
	base, added []Edge
}

func compareEdges(a, b Edge) int {
	if c := cmp.Compare(a.Rel, b.Rel); c != 0 {
		return c
	}
	if c := cmp.Compare(a.From, b.From); c != 0 {
		return c
	}
	return cmp.Compare(a.To, b.To)
}

// build merges the added edges, sorted, into the base list: the whole
// edge list in canonical order.
func (l *edgeLog) build() []Edge {
	added := slices.Clone(l.added)
	slices.SortFunc(added, compareEdges)
	out := make([]Edge, 0, len(l.base)+len(added))
	for _, ed := range l.base {
		for len(added) > 0 && compareEdges(added[0], ed) < 0 {
			out, added = append(out, added[0]), added[1:]
		}
		out = append(out, ed)
	}
	return append(out, added...)
}
