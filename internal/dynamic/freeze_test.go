package dynamic

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"github.com/uta-db/previewtables/internal/fig1"
	"github.com/uta-db/previewtables/internal/graph"
	"github.com/uta-db/previewtables/internal/storage"
)

// referenceFreeze is Freeze as it was written before graph.Assemble: it
// replays the state through graph.Builder, resolving both endpoints of
// every edge by name.
func referenceFreeze(g *Graph) (*graph.EntityGraph, error) {
	var b graph.Builder
	for _, name := range g.typeNames {
		b.Type(name)
	}
	relIDs := make([]graph.RelTypeID, len(g.rels))
	for i, r := range g.rels {
		relIDs[i] = b.RelType(r.Name, r.From, r.To)
	}
	for i, name := range g.entNames {
		b.Entity(name, g.entTypes[i]...)
	}
	for ri := range g.rels {
		h := g.hist[ri][0]
		srcs := make([]graph.EntityID, 0, len(h.values))
		for e := range h.values {
			srcs = append(srcs, e)
		}
		sort.Slice(srcs, func(a, b int) bool { return srcs[a] < srcs[b] })
		for _, e := range srcs {
			for _, v := range h.values[e] {
				b.Edge(b.Entity(g.entNames[e]), b.Entity(g.entNames[v]), relIDs[ri])
			}
		}
	}
	return b.Build()
}

// writeBatch applies one seeded batch: sometimes structural (a new type
// and a relationship type into it, reusing a surface name), then a few
// edges between old and new entities, some of them parallel duplicates,
// and a new entity or two bearing an extra type.
func writeBatch(rng *rand.Rand, g *Graph) error {
	if rng.Intn(4) == 0 {
		t := g.Type(fmt.Sprintf("T%d", len(g.typeNames)))
		from := graph.TypeID(rng.Intn(len(g.typeNames)))
		name := g.rels[rng.Intn(len(g.rels))].Name
		if _, err := g.RelType(name, from, t); err != nil {
			return err
		}
	}
	entity := func(t graph.TypeID) graph.EntityID {
		if rng.Intn(3) > 0 {
			return graph.EntityID(rng.Intn(len(g.entNames)))
		}
		types := []graph.TypeID{t}
		if rng.Intn(2) == 0 {
			types = append(types, graph.TypeID(rng.Intn(len(g.typeNames))))
		}
		return g.Entity(fmt.Sprintf("n%d", len(g.entNames)), types...)
	}
	var last [3]int32
	for i := 1 + rng.Intn(8); i > 0; i-- {
		if i < 8 && rng.Intn(4) == 0 && last != [3]int32{} {
			if err := g.AddEdge(graph.EntityID(last[0]), graph.EntityID(last[1]), graph.RelTypeID(last[2])); err != nil {
				return err
			}
			continue
		}
		rel := graph.RelTypeID(rng.Intn(len(g.rels)))
		from, to := entity(g.rels[rel].From), entity(g.rels[rel].To)
		if err := g.AddEdge(from, to, rel); err != nil {
			return err
		}
		last = [3]int32{int32(from), int32(to), int32(rel)}
	}
	return nil
}

func snapshotBytes(t *testing.T, g *graph.EntityGraph, err error) []byte {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := storage.Write(&buf, g); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestFreezeMatchesBuilderReference: over seeded write streams with new
// entities, new types, structural batches and parallel duplicate edges,
// Freeze serializes to exactly the bytes of the Builder-based reference
// at every epoch.
func TestFreezeMatchesBuilderReference(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g, err := FromEntityGraph(fig1.Graph())
		if err != nil {
			t.Fatal(err)
		}
		for epoch := 1; epoch <= 40; epoch++ {
			if err := writeBatch(rng, g); err != nil {
				t.Fatal(err)
			}
			frozen, err := g.Freeze()
			got := snapshotBytes(t, frozen, err)
			ref, err := referenceFreeze(g)
			want := snapshotBytes(t, ref, err)
			if !bytes.Equal(got, want) {
				t.Fatalf("seed %d epoch %d: Freeze differs from the Builder reference (%v vs %v)",
					seed, epoch, frozen.Stats(), ref.Stats())
			}
		}
	}
}
