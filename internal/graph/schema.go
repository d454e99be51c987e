package graph

import (
	"cmp"
	"fmt"
	"slices"
)

// Schema is the schema graph Gs(Vs, Es) in a form convenient for the preview
// algorithms: entity types as vertices, relationship types as (directed)
// multigraph edges, plus the undirected weighted view used by the
// random-walk scoring measure and by table-distance computation.
//
// A Schema is obtained either from an entity graph (EntityGraph.Schema,
// in which case edge weights are relationship-instance counts) or built
// directly with NewSchema (used by the NP-hardness reductions and tests,
// where weights default to 1 per relationship type). Either way it equals
// NewSchema of its type names and relationship types.
type Schema struct {
	typeNames []string
	rels      []RelType

	// incident[t] lists all relationship types incident on t, outgoing
	// first; this is Γτ, the candidate non-key attribute set of t.
	incident [][]Incidence

	// neighbors[t] lists the distinct entity types adjacent to t in the
	// undirected view (no self loops removed: a self loop makes t its own
	// neighbor but contributes distance 0 anyway, so it is skipped).
	neighbors [][]TypeID

	// weight[t] holds, aligned with neighbors[t], the undirected edge
	// weight w(t, u): the total number of relationship instances between
	// entities of the two types, in both directions (Sec. 3.2).
	weight [][]float64
}

// Incidence is one candidate non-key attribute of a table keyed by some
// entity type τ: a relationship type together with the orientation in which
// it is incident on τ. Outgoing means the relationship is γ(τ, τ′); the
// same relationship type can be incident on a type in both orientations
// (a self loop in the schema graph).
type Incidence struct {
	Rel      RelTypeID
	Outgoing bool
}

// Schema returns the schema graph of g. Undirected edge weights are the
// relationship-instance counts of the underlying entity graph. Assemble
// and Derive build it with the graph, and every call returns the same
// shared *Schema.
func (g *EntityGraph) Schema() *Schema { return &g.schema }

// schemaOf builds the schema graph of an entity graph's type and
// relationship-type tables.
func schemaOf(types []EntityType, rels []RelType) Schema {
	names := make([]string, len(types))
	for i := range types {
		names[i] = types[i].Name
	}
	return buildSchema(names, append([]RelType{}, rels...))
}

// NewSchema builds a schema graph directly from a list of entity type names
// and relationship types. Relationship types with zero EdgeCount are given
// weight 1 in the undirected view so that structure-only schemas (as used in
// the NP-hardness reductions, where scores are irrelevant) stay connected
// the same way.
func NewSchema(typeNames []string, rels []RelType) (*Schema, error) {
	for _, r := range rels {
		if r.From < 0 || int(r.From) >= len(typeNames) || r.To < 0 || int(r.To) >= len(typeNames) {
			return nil, fmt.Errorf("relationship type %q: endpoint out of range", r.Name)
		}
	}
	s := buildSchema(append([]string{}, typeNames...), append([]RelType{}, rels...))
	return &s, nil
}

// buildSchema makes the schema graph of names and rels, which it keeps.
// Each of its per-type lists is cut from one slab.
func buildSchema(names []string, rels []RelType) Schema {
	n := len(names)
	s := Schema{typeNames: names, rels: rels}

	// Γτ by a counting sort: counts land two slots up, so after the prefix
	// sum at[t+1] is t's offset, and filling advances it to t's end.
	at := make([]int32, n+2)
	for _, r := range rels {
		at[r.From+2]++
		at[r.To+2]++
	}
	for i := 2; i < len(at); i++ {
		at[i] += at[i-1]
	}
	incs := make([]Incidence, 2*len(rels))
	for ri, r := range rels {
		incs[at[r.From+1]] = Incidence{Rel: RelTypeID(ri), Outgoing: true}
		at[r.From+1]++
	}
	for ri, r := range rels {
		incs[at[r.To+1]] = Incidence{Rel: RelTypeID(ri), Outgoing: false}
		at[r.To+1]++
	}
	s.incident = make([][]Incidence, n)
	for t := range s.incident {
		s.incident[t] = incs[at[t]:at[t+1]:at[t+1]]
	}

	// The undirected weighted view, merging parallel relationship types:
	// one (a, b, w) triple per direction of each relationship type, in
	// relationship-id order (a self loop once), sorted stably by (a, b),
	// so each pair's weight is summed in relationship-id order.
	pairs := make([]weighted, 0, 2*len(rels))
	for _, r := range rels {
		w := float64(r.EdgeCount)
		if r.EdgeCount == 0 {
			w = 1
		}
		pairs = append(pairs, weighted{r.From, r.To, w})
		if r.From != r.To {
			pairs = append(pairs, weighted{r.To, r.From, w})
		}
	}
	slices.SortStableFunc(pairs, func(x, y weighted) int {
		if c := cmp.Compare(x.a, y.a); c != 0 {
			return c
		}
		return cmp.Compare(x.b, y.b)
	})
	m := 0
	for _, p := range pairs {
		if m > 0 && pairs[m-1].a == p.a && pairs[m-1].b == p.b {
			pairs[m-1].w += p.w
			continue
		}
		pairs[m] = p
		m++
	}
	nbrs, weights := make([]TypeID, m), make([]float64, m)
	s.neighbors, s.weight = make([][]TypeID, n), make([][]float64, n)
	lo := 0
	for t := range s.neighbors {
		hi := lo
		for ; hi < m && pairs[hi].a == TypeID(t); hi++ {
			nbrs[hi], weights[hi] = pairs[hi].b, pairs[hi].w
		}
		s.neighbors[t], s.weight[t] = nbrs[lo:hi:hi], weights[lo:hi:hi]
		lo = hi
	}
	return s
}

// weighted is a weight w between entity types a and b.
type weighted struct {
	a, b TypeID
	w    float64
}

// NumTypes returns |Vs|.
func (s *Schema) NumTypes() int { return len(s.typeNames) }

// NumRelTypes returns |Es|.
func (s *Schema) NumRelTypes() int { return len(s.rels) }

// TypeName returns the name of entity type t.
func (s *Schema) TypeName(t TypeID) string { return s.typeNames[t] }

// TypeByName resolves a type name by linear scan (schemas are small).
func (s *Schema) TypeByName(name string) (TypeID, bool) {
	for i, n := range s.typeNames {
		if n == name {
			return TypeID(i), true
		}
	}
	return None, false
}

// RelType returns relationship type r.
func (s *Schema) RelType(r RelTypeID) RelType { return s.rels[r] }

// Incident returns Γτ — the candidate non-key attributes of entity type t —
// as (relationship type, orientation) pairs. The returned slice is shared.
func (s *Schema) Incident(t TypeID) []Incidence { return s.incident[t] }

// Neighbors returns the distinct entity types adjacent to t in the
// undirected schema view, and their accumulated weights (parallel
// relationship types merged). Both slices are shared and index-aligned.
func (s *Schema) Neighbors(t TypeID) ([]TypeID, []float64) {
	return s.neighbors[t], s.weight[t]
}

// TotalWeight returns Σ_k w(t, k), the denominator of the random-walk
// transition probabilities out of t.
func (s *Schema) TotalWeight(t TypeID) float64 {
	var sum float64
	for _, w := range s.weight[t] {
		sum += w
	}
	return sum
}

// OtherEnd returns the entity type at the far end of incidence inc relative
// to the keyed type: the target entity type of the corresponding non-key
// attribute.
func (s *Schema) OtherEnd(inc Incidence) TypeID {
	r := s.rels[inc.Rel]
	if inc.Outgoing {
		return r.To
	}
	return r.From
}

// Distances computes single-source shortest-path distances (in hops, over
// the undirected view) from entity type src to every type. Unreachable
// types get -1. This is the distance used by the tight/diverse constraints:
// the length of the shortest undirected path between key attributes.
func (s *Schema) Distances(src TypeID) []int {
	dist := make([]int, len(s.typeNames))
	for i := range dist {
		dist[i] = -1
	}
	dist[src] = 0
	queue := []TypeID{src}
	for len(queue) > 0 {
		t := queue[0]
		queue = queue[1:]
		for _, u := range s.neighbors[t] {
			if dist[u] == -1 {
				dist[u] = dist[t] + 1
				queue = append(queue, u)
			}
		}
	}
	return dist
}

// DistanceMatrix holds all-pairs shortest-path distances between entity
// types over the undirected schema view. Unreachable pairs hold -1.
type DistanceMatrix struct {
	n int
	d []int
}

// AllDistances computes the all-pairs distance matrix by one BFS per type.
// Schema graphs are small (the largest Freebase domain in the paper has 91
// types), so the K·(K+N) cost is negligible and the matrix is precomputed
// once per discovery session.
func (s *Schema) AllDistances() *DistanceMatrix {
	n := len(s.typeNames)
	m := &DistanceMatrix{n: n, d: make([]int, n*n)}
	for t := 0; t < n; t++ {
		copy(m.d[t*n:(t+1)*n], s.Distances(TypeID(t)))
	}
	return m
}

// Dist returns the distance between entity types a and b, or -1 if they are
// disconnected.
func (m *DistanceMatrix) Dist(a, b TypeID) int { return m.d[int(a)*m.n+int(b)] }

// N returns the number of entity types covered by the matrix.
func (m *DistanceMatrix) N() int { return m.n }

// Diameter returns the largest finite pairwise distance, and the average
// finite pairwise distance over distinct pairs. A schema with no edges
// returns (0, 0).
func (m *DistanceMatrix) Diameter() (diameter int, avg float64) {
	var sum, cnt int
	for a := 0; a < m.n; a++ {
		for b := a + 1; b < m.n; b++ {
			d := m.Dist(TypeID(a), TypeID(b))
			if d < 0 {
				continue
			}
			if d > diameter {
				diameter = d
			}
			sum += d
			cnt++
		}
	}
	if cnt > 0 {
		avg = float64(sum) / float64(cnt)
	}
	return diameter, avg
}
