// Package dynamic maintains preview scoring measures incrementally under a
// stream of entity-graph updates.
//
// Sec. 5 of the paper observes that "both the schema graph and the scoring
// measures ... can be incrementally updated when the underlying entity
// graph is updated (detailed discussion omitted)". This package supplies
// the omitted machinery:
//
//   - coverage scores and relationship-instance counts are plain counters;
//   - the entropy measure's per-attribute value-set group histograms are
//     updated in O(deg) per edge insertion (move the affected tuple from
//     its old group to its new one, and that group from its old size to
//     its new one in the multiset of group sizes);
//   - the random-walk measure is solved from the maintained schema
//     weights, by score.StationaryDistribution, in O(K²) per iteration —
//     independent of the entity graph's size, which is the expensive part.
//
// Emitting a score.Set after u updates therefore costs O(u·deg + K² + K·N)
// instead of the O(|Vd| + |Ed|) full rescan of score.Compute, and the Set
// is a function of the graph's state alone: it equals score.Compute of the
// frozen graph bit for bit, whatever sequence of updates reached the
// state. The paper's companion observation — "the optimal previews cannot
// be incrementally updated" — still holds: rerun discovery on the
// refreshed Set.
package dynamic

import (
	"fmt"
	"slices"
	"sort"

	"github.com/uta-db/previewtables/internal/graph"
	"github.com/uta-db/previewtables/internal/score"
)

// Graph is a mutable entity graph with incrementally maintained scoring
// state. The zero value is ready to use. It is not safe for concurrent
// mutation.
type Graph struct {
	typeNames  []string
	typeByName map[string]graph.TypeID

	rels     []graph.RelType
	relByKey map[relKey]graph.RelTypeID

	entNames  []string
	entTypes  [][]graph.TypeID
	entByName map[string]graph.EntityID
	coverage  []int // per type

	edges int
	// copies[rel] counts, for each (source, target) pair of rel added more
	// than once, its parallel copies beyond the first (keyed by pairKey;
	// nil while there are none): with the value sets, the whole multiset
	// of edges Freeze writes out.
	copies []map[uint64]int32

	// hist[rel][dir] maintains the entropy bookkeeping of one attribute
	// orientation: dir 0 = outgoing (tuples are source entities of the
	// relationship's From type), dir 1 = incoming.
	hist [][2]*valueHist
	// sizeBuf is the scratch histogram a moved valueHist re-sums through.
	sizeBuf []score.SizeCount

	// Change stamps, read by Snapshot.DirtySince: moved[t] is the epoch of
	// the last batch that moved type t's measure inputs (coverage counter,
	// incident entropy histograms, incident relationship counts), and
	// structuralAt that of the last schema change (new type or
	// relationship type) or Live's first publication. epoch is the stamp
	// mutations record, the epoch the batch in progress will publish; Live
	// sets it under its writer lock (0 before the graph goes live).
	epoch        uint64
	moved        []uint64
	structuralAt uint64

	// pending records what mutations added since Live's last publication,
	// the batch delta Live derives the next snapshot's graph from (delta).
	// It is nil until the graph goes live, and cleared only after a
	// successful publication (markPublished), so what a failed batch
	// leaked lands in the next epoch, as Freeze would show it.
	pending *pending
}

// pending is a live Graph's record of mutations since its last
// publication: the type, relationship-type and entity counts at that
// publication (everything past them is new), the older entities that
// gained a type, and the edges added, split into new distinct triples
// and parallel copies.
type pending struct {
	types, rels, entities int
	retyped               []graph.EntityID // with repeats, in no order
	edges, copies         []graph.Edge
}

type relKey struct {
	name     string
	from, to graph.TypeID
}

// valueHist tracks, per tuple (entity), its current deduplicated value set
// on one attribute, the histogram of value sets across tuples, and the
// multiset of that histogram's group sizes — the entropy measure's input.
// Entropy is a function of the size multiset alone, so emitting it sums
// one term per distinct size, not one per group, and only after a move.
type valueHist struct {
	values map[graph.EntityID][]graph.EntityID // sorted, deduplicated
	groups map[string]int                      // value-set key → tuple count
	sizes  map[int]int                         // group size → number of groups
	ent    float64                             // the entropy of sizes when last summed
	moved  bool                                // sizes changed since ent was summed
}

func newValueHist() *valueHist {
	return &valueHist{
		values: map[graph.EntityID][]graph.EntityID{},
		groups: map[string]int{},
		sizes:  map[int]int{},
	}
}

// add records that tuple e gained value v; reports whether the value was
// new for the tuple (parallel edges do not change value sets).
func (h *valueHist) add(e, v graph.EntityID) bool {
	vals := h.values[e]
	i := sort.Search(len(vals), func(i int) bool { return vals[i] >= v })
	if i < len(vals) && vals[i] == v {
		return false
	}
	if len(vals) > 0 {
		h.bump(vals, -1)
	}
	vals = append(vals, 0)
	copy(vals[i+1:], vals[i:])
	vals[i] = v
	h.values[e] = vals
	h.bump(vals, +1)
	return true
}

// bump moves the group of value set vals from size c to c+delta, and so
// one group from size c to c+delta in the size multiset: O(1) beyond the
// key.
func (h *valueHist) bump(vals []graph.EntityID, delta int) {
	k := setKey(vals)
	c := h.groups[k]
	h.count(c, -1)
	h.count(c+delta, +1)
	if c+delta == 0 {
		delete(h.groups, k)
	} else {
		h.groups[k] = c + delta
	}
	h.moved = true
}

// count adds d groups of size c to the size multiset; size 0 is no group.
func (h *valueHist) count(c, d int) {
	if c == 0 {
		return
	}
	if n := h.sizes[c] + d; n == 0 {
		delete(h.sizes, c)
	} else {
		h.sizes[c] = n
	}
}

// entropy returns Sτent(γ) of h's attribute (log base 10, tuples with
// empty values excluded — they are simply absent from the maps): the
// cached sum, re-summed through score.HistogramEntropy, in its order and
// with its formula, only when a move has changed the size multiset since
// the last call.
func (g *Graph) entropy(h *valueHist) float64 {
	if !h.moved {
		return h.ent
	}
	hist := g.sizeBuf[:0]
	for size, groups := range h.sizes {
		hist = append(hist, score.SizeCount{Size: size, Groups: groups})
	}
	slices.SortFunc(hist, func(a, b score.SizeCount) int { return a.Size - b.Size })
	h.ent, h.moved = score.HistogramEntropy(hist), false
	g.sizeBuf = hist
	return h.ent
}

func setKey(vals []graph.EntityID) string {
	buf := make([]byte, 0, len(vals)*4)
	for _, id := range vals {
		buf = append(buf, byte(id), byte(id>>8), byte(id>>16), byte(id>>24))
	}
	return string(buf)
}

// Type declares (or finds) an entity type.
func (g *Graph) Type(name string) graph.TypeID {
	if g.typeByName == nil {
		g.typeByName = map[string]graph.TypeID{}
	}
	if id, ok := g.typeByName[name]; ok {
		return id
	}
	id := graph.TypeID(len(g.typeNames))
	g.typeNames = append(g.typeNames, name)
	g.coverage = append(g.coverage, 0)
	g.moved = append(g.moved, g.epoch)
	g.typeByName[name] = id
	g.structuralAt = g.epoch
	return id
}

// RelType declares (or finds) a relationship type.
func (g *Graph) RelType(name string, from, to graph.TypeID) (graph.RelTypeID, error) {
	if int(from) >= len(g.typeNames) || int(to) >= len(g.typeNames) || from < 0 || to < 0 {
		return graph.None, fmt.Errorf("dynamic: relationship %q: unknown endpoint type", name)
	}
	if g.relByKey == nil {
		g.relByKey = map[relKey]graph.RelTypeID{}
	}
	k := relKey{name, from, to}
	if id, ok := g.relByKey[k]; ok {
		return id, nil
	}
	id := graph.RelTypeID(len(g.rels))
	g.rels = append(g.rels, graph.RelType{Name: name, From: from, To: to})
	g.hist = append(g.hist, [2]*valueHist{newValueHist(), newValueHist()})
	g.copies = append(g.copies, nil)
	g.relByKey[k] = id
	g.structuralAt = g.epoch
	return id, nil
}

// Entity declares (or finds) an entity, adding any new types to it.
// Coverage counters update incrementally.
func (g *Graph) Entity(name string, types ...graph.TypeID) graph.EntityID {
	if g.entByName == nil {
		g.entByName = map[string]graph.EntityID{}
	}
	id, ok := g.entByName[name]
	if !ok {
		id = graph.EntityID(len(g.entNames))
		g.entNames = append(g.entNames, name)
		g.entTypes = append(g.entTypes, nil)
		g.entByName[name] = id
	}
	for _, t := range types {
		g.addType(id, t)
	}
	return id
}

func (g *Graph) addType(e graph.EntityID, t graph.TypeID) {
	ts := g.entTypes[e]
	i := sort.Search(len(ts), func(i int) bool { return ts[i] >= t })
	if i < len(ts) && ts[i] == t {
		return
	}
	ts = append(ts, 0)
	copy(ts[i+1:], ts[i:])
	ts[i] = t
	g.entTypes[e] = ts
	g.coverage[t]++
	g.moved[t] = g.epoch
	if p := g.pending; p != nil && int(e) < p.entities {
		p.retyped = append(p.retyped, e)
	}
}

// AddEdge inserts one relationship instance and updates every affected
// measure input: the relationship's instance count (coverage measure and
// walk weight), the endpoints' types (coverage), and both orientations'
// value-set histograms (entropy). Cost is O(log deg + deg) for the
// value-set maintenance of the two affected tuples.
func (g *Graph) AddEdge(from, to graph.EntityID, rel graph.RelTypeID) error {
	if int(from) >= len(g.entNames) || int(to) >= len(g.entNames) || from < 0 || to < 0 {
		return fmt.Errorf("dynamic: edge endpoint out of range")
	}
	if int(rel) >= len(g.rels) || rel < 0 {
		return fmt.Errorf("dynamic: unknown relationship type %d", rel)
	}
	rt := g.rels[rel]
	g.addType(from, rt.From)
	g.addType(to, rt.To)
	g.rels[rel].EdgeCount++
	g.edges++
	fresh := g.hist[rel][0].add(from, to)
	g.hist[rel][1].add(to, from)
	ed := graph.Edge{From: from, To: to, Rel: rel}
	if !fresh {
		if g.copies[rel] == nil {
			g.copies[rel] = map[uint64]int32{}
		}
		g.copies[rel][pairKey(from, to)]++
	}
	if p := g.pending; p != nil {
		if fresh {
			p.edges = append(p.edges, ed)
		} else {
			p.copies = append(p.copies, ed)
		}
	}
	// The edge moves the relationship count and both orientations'
	// entropy — non-key inputs of exactly the two endpoint types.
	g.moved[rt.From], g.moved[rt.To] = g.epoch, g.epoch
	return nil
}

// TypeName returns the name of a declared type.
func (g *Graph) TypeName(t graph.TypeID) string { return g.typeNames[int(t)] }

// TypeByName finds a declared type without declaring it.
func (g *Graph) TypeByName(name string) (graph.TypeID, bool) {
	id, ok := g.typeByName[name]
	return id, ok
}

// Rel returns one relationship type record (including its maintained
// instance count). Relationship types are keyed by (name, from, to), so
// one surface name may map to several types (the paper's "Award Winners"
// spans both actors and directors) — resolving a bare name to a type is
// the caller's policy.
func (g *Graph) Rel(id graph.RelTypeID) graph.RelType { return g.rels[int(id)] }

// FromEntityGraph streams an immutable entity graph into a fresh mutable
// Graph. Declaration order follows the source graph's ID order, so every
// type, relationship-type and entity ID is preserved — a frozen view of
// the result is interchangeable with the source.
func FromEntityGraph(src *graph.EntityGraph) (*Graph, error) {
	g := &Graph{}
	for t := 0; t < src.NumTypes(); t++ {
		g.Type(src.TypeName(graph.TypeID(t)))
	}
	for r := 0; r < src.NumRelTypes(); r++ {
		rt := src.RelType(graph.RelTypeID(r))
		if _, err := g.RelType(rt.Name, rt.From, rt.To); err != nil {
			return nil, err
		}
	}
	for e := 0; e < src.NumEntities(); e++ {
		ent := src.Entity(graph.EntityID(e))
		g.Entity(ent.Name, ent.Types...)
	}
	for i := 0; i < src.NumEdges(); i++ {
		ed := src.Edge(graph.EdgeID(i))
		if err := g.AddEdge(ed.From, ed.To, ed.Rel); err != nil {
			return nil, err
		}
	}
	return g, nil
}

// Stats returns current size statistics.
func (g *Graph) Stats() graph.Stats {
	return graph.Stats{
		Entities: len(g.entNames),
		Edges:    g.edges,
		Types:    len(g.typeNames),
		RelTypes: len(g.rels),
	}
}

// Schema builds the current schema graph (O(K + N)).
func (g *Graph) Schema() (*graph.Schema, error) {
	return graph.NewSchema(g.typeNames, g.rels)
}

// Scores assembles a score.Set from the incrementally maintained state:
// coverage and entropy read off the maintained counters and histograms;
// the random walk is solved on the (small) schema graph, cold, by
// score.StationaryDistribution. No entity or edge is revisited, and the
// Set equals score.Compute of Freeze's graph bit for bit.
func (g *Graph) Scores(opts score.WalkOptions) (*score.Set, error) {
	s, err := g.Schema()
	if err != nil {
		return nil, err
	}
	n := s.NumTypes()
	keyCov := make([]float64, n)
	for t := 0; t < n; t++ {
		keyCov[t] = float64(g.coverage[t])
	}
	keyWalk := score.StationaryDistribution(s, opts)
	nonKeyCov := make([][]float64, n)
	nonKeyEnt := make([][]float64, n)
	for t := 0; t < n; t++ {
		incs := s.Incident(graph.TypeID(t))
		cov := make([]float64, len(incs))
		ent := make([]float64, len(incs))
		for i, inc := range incs {
			cov[i] = float64(g.rels[inc.Rel].EdgeCount)
			dir := 1
			if inc.Outgoing {
				dir = 0
			}
			ent[i] = g.entropy(g.hist[inc.Rel][dir])
		}
		nonKeyCov[t] = cov
		nonKeyEnt[t] = ent
	}
	return score.NewSet(s, keyCov, keyWalk, nonKeyCov, nonKeyEnt)
}

// Freeze materializes the current state as an immutable EntityGraph for
// interop with rendering and tuple materialization. This is a full
// O(|Vd| + |Ed|) rebuild: a Live pays it once, at its first publication,
// and derives every later snapshot's graph from the previous one
// (graph.Derive), which must equal Freeze's. It hands graph.Assemble
// copies of the names, relationship types and entity type lists, and
// every edge, ordered by relationship type, then source, then target,
// with a triple's parallel copies side by side; ids are this graph's ids.
// So the frozen graph counts what the live counters count (NumEdges,
// EdgeCount), and a graph streamed back from it (FromEntityGraph, as a
// checkpoint restart does) counts the same again. Its neighbor runs hold
// each neighbor once, in ascending id order.
func (g *Graph) Freeze() (*graph.EntityGraph, error) {
	types := append([]string(nil), g.typeNames...)
	rels := append([]graph.RelType(nil), g.rels...)
	var slabLen int
	for _, ts := range g.entTypes {
		slabLen += len(ts)
	}
	slab := make([]graph.TypeID, 0, slabLen)
	ents := make([]graph.Entity, len(g.entNames))
	for i, name := range g.entNames {
		off := len(slab)
		slab = append(slab, g.entTypes[i]...)
		ents[i] = graph.Entity{Name: name, Types: slab[off:len(slab):len(slab)]}
	}
	edges := make([]graph.Edge, 0, g.edges)
	var srcs []graph.EntityID
	for ri := range g.rels {
		h, copies := g.hist[ri][0], g.copies[ri]
		srcs = srcs[:0]
		for e := range h.values {
			srcs = append(srcs, e)
		}
		slices.Sort(srcs)
		for _, e := range srcs {
			for _, v := range h.values[e] {
				ed := graph.Edge{From: e, To: v, Rel: graph.RelTypeID(ri)}
				edges = append(edges, ed)
				for c := copies[pairKey(e, v)]; c > 0; c-- {
					edges = append(edges, ed)
				}
			}
		}
	}
	return graph.Assemble(types, rels, ents, edges)
}

// pairKey packs a (source, target) pair into one map key.
func pairKey(from, to graph.EntityID) uint64 { return uint64(from)<<32 | uint64(uint32(to)) }

// delta returns what mutations added since the last publication, in the
// form graph.Derive takes. Its slices are g's own; Derive copies what it
// keeps.
func (g *Graph) delta() graph.Delta {
	p := g.pending
	d := graph.Delta{Types: g.typeNames[p.types:], Rels: g.rels, Edges: p.edges, Copies: p.copies}
	for e := p.entities; e < len(g.entNames); e++ {
		d.Entities = append(d.Entities, graph.Entity{Name: g.entNames[e], Types: g.entTypes[e]})
	}
	slices.Sort(p.retyped)
	p.retyped = slices.Compact(p.retyped)
	for _, e := range p.retyped {
		d.Retyped = append(d.Retyped, graph.Retype{Entity: e, Types: g.entTypes[e]})
	}
	return d
}

// markPublished starts a new pending record at the current state: Live
// calls it after each successful publication.
func (g *Graph) markPublished() {
	p := g.pending
	if p == nil {
		p = &pending{}
		g.pending = p
	}
	p.types, p.rels, p.entities = len(g.typeNames), len(g.rels), len(g.entNames)
	p.retyped, p.edges, p.copies = p.retyped[:0], p.edges[:0], p.copies[:0]
}
