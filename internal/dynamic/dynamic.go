// Package dynamic maintains preview scoring measures incrementally under a
// stream of entity-graph updates.
//
// Sec. 5 of the paper observes that "both the schema graph and the scoring
// measures ... can be incrementally updated when the underlying entity
// graph is updated (detailed discussion omitted)". This package supplies
// the omitted machinery:
//
//   - coverage scores and relationship-instance counts are read off the
//     graph each fold publishes: graph.Derive appends the batch's entities
//     to the per-type lists and counts its edges on their relationship
//     types;
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
// types, and no count of them: the immutable graph.EntityGraph it last
// folded into (base) holds them, and an open batch holds what mutations
// added since. A Graph
// opened on an entity graph (FromEntityGraph) starts from that graph as
// its base, adopted as it is: it shares the source's arrays and never
// writes them, and re-derives nothing of it. A mutation costs O(1) beyond
// its endpoints' type lists. A fold (Freeze; Scores runs one first)
// derives the next graph from base and the batch (graph.Derive), then
// moves the histogram group of each tuple whose run grew: O(u log u) for a
// batch of u edges, plus Derive's word copies of the adjacency. Emitting a
// score.Set then costs O(K² + K·N) more, through the assembly every Set
// is made by (score.ComputeWith), instead of score.Compute's hashing of
// every value set in an O(|Vd| + |Ed|) rescan, and the Set is a function
// of the graph's state alone: it equals score.Compute of the frozen graph
// bit for bit, whatever sequence of updates reached the state. The
// paper's companion observation — "the optimal previews cannot be
// incrementally updated" — still holds: rerun discovery on the refreshed
// Set.
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

	rels     []graph.RelType // declarations: EdgeCount is always 0
	relByKey map[relKey]graph.RelTypeID

	// hist[rel][dir] maintains the entropy bookkeeping of one attribute
	// orientation: dir 0 = outgoing (tuples are source entities of the
	// relationship's From type), dir 1 = incoming.
	hist [][2]*valueHist
	// sizeBuf is the scratch histogram a moved valueHist re-sums through.
	sizeBuf []score.SizeCount

	// Change stamps, read by Snapshot.DirtySince: moved[t] is the epoch of
	// the last batch that moved type t's measure inputs (coverage,
	// incident entropy histograms, incident relationship counts), and
	// structuralAt that of the last schema change (new type or
	// relationship type) or Live's first publication. epoch is the stamp
	// mutations record, the epoch the batch in progress will publish; Live
	// sets it under its writer lock (0 before the graph goes live).
	epoch        uint64
	moved        []uint64
	structuralAt uint64

	// base is the graph as of the last fold, or the source FromEntityGraph
	// adopted (nil for a zero Graph until its first fold: the empty
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

// last returns the graph as of the last fold, or the adopted source: the
// empty graph for a zero Graph before its first fold.
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
	g.moved[t] = g.epoch
}

// AddEdge inserts one relationship instance, giving its endpoints the
// relationship's endpoint types. The edge joins the open batch; the next
// fold counts it (coverage measure and walk weight) and moves the
// value-set histograms (entropy) it grows.
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

// Rel returns one relationship type's declaration: its name and endpoint
// types (EdgeCount is 0; the published graph counts instances).
// Relationship types are keyed by (name, from, to), so one surface name
// may map to several types (the paper's "Award Winners" spans both
// actors and directors) — resolving a bare name to a type is the
// caller's policy.
func (g *Graph) Rel(id graph.RelTypeID) graph.RelType { return g.rels[int(id)] }

// FromEntityGraph opens a mutable Graph on an immutable entity graph:
// the source, adopted as it is (graph.Adopt), is the Graph's first base,
// so every type, relationship-type and entity id is the source's and a
// frozen view of the result is interchangeable with it. The live graph
// shares the source's arrays and never writes them. It declares the
// source's types and relationship types, and each histogram gains one
// group key per non-empty neighbor run, visited once per direction.
// Nothing is pending: the first Freeze publishes the adopted graph as it
// is, or derives one ordinary batch on top of it when writes (a replayed
// WAL tail) came first.
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
	g.base = graph.Adopt(src)
	for dir, out := range [2]bool{true, false} {
		src.Runs(out, func(_ graph.EntityID, rel graph.RelTypeID, run []graph.EntityID) {
			g.hist[rel][dir].bump(run, +1)
		})
	}
	return g, nil
}

// Stats returns current size statistics: the base graph's counts plus
// the open batch.
func (g *Graph) Stats() graph.Stats {
	return graph.Stats{
		Entities: g.numEntities(),
		Edges:    g.last().NumEdges() + len(g.added),
		Types:    len(g.typeNames),
		RelTypes: len(g.rels),
	}
}

// Scores folds the open batch (see Freeze) and assembles the folded
// graph's score.Set by score.ComputeWith: coverage and the relationship
// counts are read off the folded graph, the entropies off the maintained
// histograms, and the random walk is solved on its (small) schema graph,
// cold. No entity or edge is revisited, and the Set equals score.Compute
// of Freeze's graph bit for bit. The assembly runs on one worker, whatever
// opts.Parallelism says: the histograms re-sum through one scratch.
func (g *Graph) Scores(opts score.WalkOptions) (*score.Set, error) {
	frozen, err := g.Freeze()
	if err != nil {
		return nil, err
	}
	opts.Parallelism = 1
	return score.ComputeWith(frozen, func(_ graph.TypeID, incs []graph.Incidence, ent []float64) {
		for i, inc := range incs {
			dir := 1
			if inc.Outgoing {
				dir = 0
			}
			ent[i] = g.entropy(g.hist[inc.Rel][dir])
		}
	}, opts), nil
}

// Freeze folds the open batch and returns the current state as an
// immutable EntityGraph, for rendering and tuple materialization. The
// fold derives the graph from base and the batch (graph.Derive), moves
// the histogram group of each tuple whose neighbor run grew from its old
// run's key to its new one's, makes the result base and clears the batch.
// With nothing pending it returns base as it is, so two calls share one
// graph. The graph's ids are this graph's ids; it counts every parallel
// copy and holds each neighbor once per run, in name order: it equals
// graph.Assemble of the whole state in canonical edge order
// (relationship type, source, target). So a Graph
// opened on it (FromEntityGraph, as a checkpoint restart does) counts the
// same again. A Graph just opened has nothing pending: its first Freeze
// returns the adopted source, which shares the source's arrays.
func (g *Graph) Freeze() (*graph.EntityGraph, error) {
	prev := g.last()
	if len(g.typeNames) == prev.NumTypes() && len(g.rels) == prev.NumRelTypes() &&
		len(g.entities) == 0 && len(g.retyped) == 0 && len(g.added) == 0 {
		return prev, nil
	}
	d := graph.Delta{Types: g.typeNames[prev.NumTypes():], Rels: g.rels[prev.NumRelTypes():], Entities: g.entities, Edges: g.added}
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
