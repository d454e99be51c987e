package score_test

import (
	"bytes"
	"math"
	"math/rand"
	"sort"
	"testing"

	"github.com/uta-db/previewtables/internal/graph"
	"github.com/uta-db/previewtables/internal/graph/graphtest"
	"github.com/uta-db/previewtables/internal/score"
	"github.com/uta-db/previewtables/internal/storage"
)

// referenceEntropy is Entropy as it was written before the flat layout: a
// map from each value set's sorted-id key to its tuple count, folded into
// size → multiplicity and summed over sizes in increasing order. It is the
// oracle for the grouping Entropy does now.
func referenceEntropy(g *graph.EntityGraph, t graph.TypeID, inc graph.Incidence) float64 {
	groups := make(map[string]int)
	var nonEmpty int
	for _, e := range g.EntitiesOfType(t) {
		vals := g.Neighbors(e, inc.Rel, inc.Outgoing)
		if len(vals) == 0 {
			continue
		}
		nonEmpty++
		groups[valueSetKey(vals)]++
	}
	if nonEmpty == 0 {
		return 0
	}
	sizes := make(map[int]int)
	for _, nj := range groups {
		sizes[nj]++
	}
	distinct := make([]int, 0, len(sizes))
	for c := range sizes {
		distinct = append(distinct, c)
	}
	sort.Ints(distinct)
	var h float64
	total := float64(nonEmpty)
	for _, c := range distinct {
		p := float64(c) / total
		h += float64(sizes[c]) * p * math.Log10(1/p)
	}
	return h
}

// valueSetKey canonicalizes a value set: sorted entity ids joined into a
// deterministic key, so {a,b} and {b,a} collide.
func valueSetKey(vals []graph.EntityID) string {
	ids := make([]graph.EntityID, len(vals))
	copy(ids, vals)
	sort.Slice(ids, func(a, b int) bool { return ids[a] < ids[b] })
	buf := make([]byte, 0, len(ids)*4)
	for _, id := range ids {
		buf = append(buf, byte(id), byte(id>>8), byte(id>>16), byte(id>>24))
	}
	return string(buf)
}

// checkEntropy compares Entropy with the reference, bit for bit, on every
// (type, incidence) of g.
func checkEntropy(t *testing.T, name string, g *graph.EntityGraph) {
	t.Helper()
	s := g.Schema()
	for ti := 0; ti < s.NumTypes(); ti++ {
		for _, inc := range s.Incident(graph.TypeID(ti)) {
			got := score.Entropy(g, graph.TypeID(ti), inc)
			want := referenceEntropy(g, graph.TypeID(ti), inc)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%s: Entropy(type %d, %+v) = %v, reference %v", name, ti, inc, got, want)
			}
		}
	}
}

// TestEntropyMatchesReference: Entropy's grouping (singletons counted by
// id, multi-valued sets keyed by their runs, which are in name order)
// gives bit-identical scores to the map-and-key reference, which sorts
// each set's ids, on Fig. 1, the default-scale domains and seeded random
// multigraphs, and so does Compute's per-type scratch.
func TestEntropyMatchesReference(t *testing.T) {
	gs, err := graphtest.Corpus()
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range gs {
		checkEntropy(t, n.Name, n.Graph)
		set := score.Compute(n.Graph, score.DefaultWalkOptions())
		s := n.Graph.Schema()
		for ti := 0; ti < s.NumTypes(); ti++ {
			for i, inc := range s.Incident(graph.TypeID(ti)) {
				got := set.NonKey(score.NonKeyEntropy, graph.TypeID(ti), i)
				want := referenceEntropy(n.Graph, graph.TypeID(ti), inc)
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("%s: Compute entropy (type %d, %+v) = %v, reference %v", n.Name, ti, inc, got, want)
				}
			}
		}
	}
}

// FuzzGraphLayout decodes its input into a multigraph of at most 12 types
// and 64 entities (graphtest.Multigraph) and checks the flat layout from
// three sides: Neighbors against each run's neighbors found by a scan of
// the edges and ordered by their sorted names, Entropy against the
// reference, and the snapshot codec's Write → Read → Write, which must
// reproduce the bytes.
func FuzzGraphLayout(f *testing.F) {
	f.Add([]byte{})
	rng := rand.New(rand.NewSource(1))
	for _, size := range []int{3, 40, 200, 800} {
		data := make([]byte, size)
		rng.Read(data)
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		g, err := graphtest.Multigraph(data)
		if err != nil {
			t.Fatal(err)
		}
		if err := graphtest.CheckNeighbors(g); err != nil {
			t.Fatal(err)
		}
		checkEntropy(t, "fuzz", g)
		var first, second bytes.Buffer
		if err := storage.Write(&first, g); err != nil {
			t.Fatal(err)
		}
		g2, err := storage.Read(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("reading a written snapshot: %v", err)
		}
		if err := storage.Write(&second, g2); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatal("Write → Read → Write changed the snapshot bytes")
		}
	})
}
