// Package dynamic maintains preview scoring measures incrementally under a
// stream of entity-graph updates.
//
// Sec. 5 of the paper observes that "both the schema graph and the scoring
// measures ... can be incrementally updated when the underlying entity
// graph is updated (detailed discussion omitted)". This package supplies
// the omitted machinery:
//
//   - coverage scores and relationship-instance counts are plain counters;
//   - the entropy measure's per-attribute value-set group histograms move
//     one tuple per grown neighbor run (from the group of its old run to
//     that of its new one, and that group from its old size to its new one
//     in the multiset of group sizes);
//   - the random-walk measure is solved from the schema graph that
//     graph.Derive builds with each folded graph, by
//     score.StationaryDistribution, in O(K²) per iteration — independent
//     of the entity graph's size, which is the expensive part.
//
// A Graph holds no copy of the entity graph's edges, names or entity
// types: the immutable graph.EntityGraph it last folded into (base) holds
// them, and an open batch holds what mutations added since. A mutation
// costs O(1) beyond its endpoints' type lists. A fold (Freeze; Scores runs
// one first) derives the next graph from base and the batch
// (graph.Derive), then moves the histogram group of each tuple whose run
// grew: O(u log u) for a batch of u edges, plus Derive's word copies of the
// adjacency. Emitting a score.Set then costs O(K² + K·N) more, instead of
// score.Compute's hashing of every value set in an O(|Vd| + |Ed|) rescan,
// and the Set is a function of the graph's state alone: it equals
// score.Compute of the frozen graph bit for bit, whatever sequence of
// updates reached the state. The paper's companion observation — "the
// optimal previews cannot be incrementally updated" — still holds: rerun
// discovery on the refreshed Set.
package dynamic

import (
	"cmp"
	"fmt"
	"slices"

	"github.com/uta-db/previewtables/internal/graph"
	"github.com/uta-db/previewtables/internal/score"
)

// Graph is a mutable entity graph with incrementally maintained scoring
// state. The zero value is ready to use: it starts from the empty graph.
// It is not safe for concurrent mutation.
type Graph struct {
	typeNames  []string
	typeByName map[string]graph.TypeID

	rels     []graph.RelType
	relByKey map[relKey]graph.RelTypeID

	coverage []int // per type
	edges    int

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

	// base is the graph as of the last fold (nil until then: the empty
	// graph). The open batch is what mutations added since: the entities
	// declared, with their type lists and an index of their names (base's
	// name order resolves the older ones); older entities' grown type
	// lists; and every edge, parallel copies included. Only a fold clears
	// it, so what a failed batch leaked lands in the next one.
	base     *graph.EntityGraph
	entities []graph.Entity
	newNames map[string]graph.EntityID
	retyped  map[graph.EntityID][]graph.TypeID
	added    []graph.Edge
}

type relKey struct {
	name     string
	from, to graph.TypeID
}

// valueHist tracks the histogram of one attribute's value sets across
// tuples (entities), keyed by each tuple's neighbor run, and the multiset
// of that histogram's group sizes — the entropy measure's input. Entropy
// is a function of the size multiset alone, so emitting it sums one term
// per distinct size, not one per group, and only after a move.
type valueHist struct {
	groups map[string]int // value-set key → tuple count
	sizes  map[int]int    // group size → number of groups
	ent    float64        // the entropy of sizes when last summed
	moved  bool           // sizes changed since ent was summed
}

func newValueHist() *valueHist {
	return &valueHist{groups: map[string]int{}, sizes: map[int]int{}}
}

// move records that a tuple's run grew from old (empty for a tuple new to
// the attribute) to now.
func (h *valueHist) move(old, now []graph.EntityID) {
	if len(old) > 0 {
		h.bump(old, -1)
	}
	h.bump(now, +1)
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
	g.relByKey[k] = id
	g.structuralAt = g.epoch
	return id, nil
}

// Entity declares (or finds) an entity, adding any new types to it.
// Coverage counters update incrementally.
func (g *Graph) Entity(name string, types ...graph.TypeID) graph.EntityID {
	id, ok := g.last().EntityByName(name)
	if !ok {
		if id, ok = g.newNames[name]; !ok {
			if g.newNames == nil {
				g.newNames = map[string]graph.EntityID{}
			}
			id = graph.EntityID(g.numEntities())
			g.entities = append(g.entities, graph.Entity{Name: name})
			g.newNames[name] = id
		}
	}
	for _, t := range types {
		g.addType(id, t)
	}
	return id
}

// last returns the graph as of the last fold: the empty graph before the
// first.
func (g *Graph) last() *graph.EntityGraph {
	if g.base == nil {
		g.base = &graph.EntityGraph{}
	}
	return g.base
}

func (g *Graph) numEntities() int { return g.last().NumEntities() + len(g.entities) }

// addType gives entity e type t. The grown list is the batch's: a fresh
// copy, since base's lists are its readers'.
func (g *Graph) addType(e graph.EntityID, t graph.TypeID) {
	n := g.last().NumEntities()
	var ts []graph.TypeID
	if int(e) >= n {
		ts = g.entities[int(e)-n].Types
	} else if grown, ok := g.retyped[e]; ok {
		ts = grown
	} else {
		ts = g.base.Entity(e).Types
	}
	i, found := slices.BinarySearch(ts, t)
	if found {
		return
	}
	ts = slices.Insert(slices.Clip(ts), i, t)
	if int(e) >= n {
		g.entities[int(e)-n].Types = ts
	} else {
		if g.retyped == nil {
			g.retyped = map[graph.EntityID][]graph.TypeID{}
		}
		g.retyped[e] = ts
	}
	g.coverage[t]++
	g.moved[t] = g.epoch
}

// AddEdge inserts one relationship instance and updates the counters it
// moves: the relationship's instance count (coverage measure and walk
// weight) and the endpoints' types (coverage). The edge joins the open
// batch; the next fold moves the value-set histograms (entropy) it grows.
func (g *Graph) AddEdge(from, to graph.EntityID, rel graph.RelTypeID) error {
	if n := g.numEntities(); int(from) >= n || int(to) >= n || from < 0 || to < 0 {
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
	g.added = append(g.added, graph.Edge{From: from, To: to, Rel: rel})
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
// Graph, whose first fold builds every histogram with one group key per
// tuple. Declaration order follows the source graph's ID order, so every
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
		Entities: g.numEntities(),
		Edges:    g.edges,
		Types:    len(g.typeNames),
		RelTypes: len(g.rels),
	}
}

// Scores assembles a score.Set from the incrementally maintained state,
// after a fold (see Freeze): coverage and entropy read off the maintained
// counters and histograms; the random walk is solved on the folded
// graph's (small) schema graph, cold, by score.StationaryDistribution. No
// entity or edge is revisited, and the Set equals score.Compute of
// Freeze's graph bit for bit.
func (g *Graph) Scores(opts score.WalkOptions) (*score.Set, error) {
	frozen, err := g.Freeze()
	if err != nil {
		return nil, err
	}
	s := frozen.Schema()
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

// Freeze folds the open batch and returns the current state as an
// immutable EntityGraph, for rendering and tuple materialization. The
// fold derives the graph from base and the batch (graph.Derive), moves
// the histogram group of each tuple whose neighbor run grew from its old
// run's key to its new one's, makes the result base and clears the batch.
// With nothing pending it returns base as it is, so two calls share one
// graph. The graph's ids are this graph's ids; it counts every parallel
// copy, as the counters do, and holds each neighbor once per run, in
// name order: it equals graph.Assemble of the whole state in
// canonical edge order (relationship type, source, target). So a graph
// streamed back from it (FromEntityGraph, as a checkpoint restart does)
// counts the same again.
func (g *Graph) Freeze() (*graph.EntityGraph, error) {
	prev := g.last()
	if len(g.typeNames) == prev.NumTypes() && len(g.rels) == prev.NumRelTypes() &&
		len(g.entities) == 0 && len(g.retyped) == 0 && len(g.added) == 0 {
		return prev, nil
	}
	d := graph.Delta{Types: g.typeNames[prev.NumTypes():], Rels: g.rels, Entities: g.entities, Edges: g.added}
	for e, ts := range g.retyped {
		d.Retyped = append(d.Retyped, graph.Retype{Entity: e, Types: ts})
	}
	slices.SortFunc(d.Retyped, func(a, b graph.Retype) int { return cmp.Compare(a.Entity, b.Entity) })
	next, err := graph.Derive(prev, d)
	if err != nil {
		return nil, err
	}
	// A tuple's run grows only by the batch's edges: visit each (relationship
	// type, entity) they touch once per direction.
	keys := make([]uint64, len(g.added))
	for dir, out := range [2]bool{true, false} {
		for i, ed := range g.added {
			e := ed.To
			if out {
				e = ed.From
			}
			keys[i] = uint64(ed.Rel)<<32 | uint64(e)
		}
		slices.Sort(keys)
		for i, k := range keys {
			if i > 0 && k == keys[i-1] {
				continue
			}
			e, rel := graph.EntityID(uint32(k)), graph.RelTypeID(k>>32)
			var old []graph.EntityID
			if int(e) < prev.NumEntities() {
				old = prev.Neighbors(e, rel, out)
			}
			if now := next.Neighbors(e, rel, out); len(now) > len(old) {
				g.hist[rel][dir].move(old, now)
			}
		}
	}
	g.base, g.entities, g.newNames, g.retyped, g.added = next, nil, nil, nil, nil
	return next, nil
}
