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
//     its old group to its new one);
//   - the random-walk measure is recomputed from the maintained schema
//     weights in O(K²) per refresh — independent of the entity graph's
//     size, which is the expensive part.
//
// Emitting a score.Set after u updates therefore costs O(u·deg + K² + K·N)
// instead of the O(|Vd| + |Ed|) full rescan of score.Compute. The paper's
// companion observation — "the optimal previews cannot be incrementally
// updated" — still holds: rerun discovery on the refreshed Set.
package dynamic

import (
	"fmt"
	"math"
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

	// hist[rel][dir] maintains the entropy bookkeeping of one attribute
	// orientation: dir 0 = outgoing (tuples are source entities of the
	// relationship's From type), dir 1 = incoming.
	hist [][2]*valueHist

	// walkPi is the stationary distribution of the previous Scores call,
	// used to warm-start power iteration: one update batch perturbs the
	// schema weights only slightly, so the old π is already near the new
	// fixed point and re-solving takes a handful of iterations.
	walkPi []float64

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
}

type relKey struct {
	name     string
	from, to graph.TypeID
}

// valueHist tracks, per tuple (entity), its current deduplicated value set
// on one attribute, and the histogram of value sets across tuples — the
// inputs to the entropy measure. Alongside the histogram it maintains the
// two aggregates the entropy formula needs — the non-empty tuple count and
// Σ c·log10(c) over group counts — so emitting the entropy is O(1) instead
// of a scan over every group.
type valueHist struct {
	values map[graph.EntityID][]graph.EntityID // sorted, deduplicated
	groups map[string]int                      // value-set key → tuple count
	total  int                                 // Σ counts (non-empty tuples)
	clogc  float64                             // Σ c·log10(c) over groups
	pairs  int                                 // Σ len(values[e])
}

func newValueHist() *valueHist {
	return &valueHist{
		values: map[graph.EntityID][]graph.EntityID{},
		groups: map[string]int{},
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
	h.pairs++
	h.bump(vals, +1)
	return true
}

func (h *valueHist) bump(vals []graph.EntityID, delta int) {
	k := setKey(vals)
	c := h.groups[k]
	h.clogc += clog(c+delta) - clog(c)
	h.total += delta
	h.groups[k] = c + delta
	if h.groups[k] == 0 {
		delete(h.groups, k)
	}
}

// clog is c·log10(c) with the 0·log(0) = 0 convention.
func clog(c int) float64 {
	if c <= 1 {
		return 0
	}
	return float64(c) * math.Log10(float64(c))
}

// entropy computes Sτent(γ) from the maintained aggregates in O(1):
// H = Σ (c/T)·log10(T/c) = log10(T) − (Σ c·log10 c)/T (log base 10,
// tuples with empty values excluded — they are simply absent from the
// maps). The running Σ c·log10 c accumulates float error on the order of
// one ulp per histogram move, far below the measure's meaningful
// resolution; the result is clamped at 0 so a drifted aggregate can never
// report a (meaningless) negative entropy.
func (h *valueHist) entropy() float64 {
	if h.total == 0 {
		return 0
	}
	e := math.Log10(float64(h.total)) - h.clogc/float64(h.total)
	if e < 0 {
		return 0
	}
	return e
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
	g.hist[rel][0].add(from, to)
	g.hist[rel][1].add(to, from)
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
// the random walk is re-solved on the (small) schema graph. No entity or
// edge is revisited.
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
	keyWalk := score.StationaryDistributionWarm(s, opts, g.walkPi)
	g.walkPi = append(g.walkPi[:0], keyWalk...)
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
			ent[i] = g.hist[inc.Rel][dir].entropy()
		}
		nonKeyCov[t] = cov
		nonKeyEnt[t] = ent
	}
	return score.NewSet(s, keyCov, keyWalk, nonKeyCov, nonKeyEnt)
}

// Freeze materializes the current state as an immutable EntityGraph for
// interop with rendering and tuple materialization. This is a full O(|Vd| +
// |Ed|) rebuild — use it when you need tuples, not scores. It hands
// graph.Assemble copies of the names, relationship types and entity type
// lists, and one edge per distinct (source, relationship type, target),
// ordered by relationship type, then source, then target; ids are this
// graph's ids.
//
// Note: Freeze rebuilds edges from the deduplicated value sets, so parallel
// duplicate edges collapse; every scoring measure is unaffected except
// relationship coverage, which Freeze preserves by construction through
// the maintained counts (the rebuilt graph re-counts, so its counts reflect
// the deduplicated edges — documented divergence for multigraph duplicates).
func (g *Graph) Freeze() (*graph.EntityGraph, error) {
	types := append([]string(nil), g.typeNames...)
	rels := append([]graph.RelType(nil), g.rels...)
	var slabLen, nEdges int
	for _, ts := range g.entTypes {
		slabLen += len(ts)
	}
	for _, h := range g.hist {
		nEdges += h[0].pairs
	}
	slab := make([]graph.TypeID, 0, slabLen)
	ents := make([]graph.Entity, len(g.entNames))
	for i, name := range g.entNames {
		off := len(slab)
		slab = append(slab, g.entTypes[i]...)
		ents[i] = graph.Entity{Name: name, Types: slab[off:len(slab):len(slab)]}
	}
	edges := make([]graph.Edge, 0, nEdges)
	var srcs []graph.EntityID
	for ri := range g.rels {
		h := g.hist[ri][0]
		srcs = srcs[:0]
		for e := range h.values {
			srcs = append(srcs, e)
		}
		slices.Sort(srcs)
		for _, e := range srcs {
			for _, v := range h.values[e] {
				edges = append(edges, graph.Edge{From: e, To: v, Rel: graph.RelTypeID(ri)})
			}
		}
	}
	return graph.Assemble(types, rels, ents, edges)
}
