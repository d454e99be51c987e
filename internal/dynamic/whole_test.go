package dynamic

import (
	"bytes"
	"math/rand"
	"testing"

	"github.com/uta-db/previewtables/internal/fig1"
	"github.com/uta-db/previewtables/internal/freebase"
	"github.com/uta-db/previewtables/internal/graph"
	"github.com/uta-db/previewtables/internal/graph/graphtest"
	"github.com/uta-db/previewtables/internal/score"
	"github.com/uta-db/previewtables/internal/storage"
)

// TestGraphsWholeWhenMade: a graph is whole when it is made. On Fig. 1
// and the seven default-scale domains, a storage.Read round trip of each,
// the snapshot FromEntityGraph plus NewLive publish for each, and the
// snapshots a seeded stream of batches then derives from it (a
// graph.Derive chain), the first NameOrder and Schema calls allocate
// nothing; the order equals a sort of the names, EntityByName resolves
// every name and neither an absent name nor a proper prefix of a present
// one, and the schema equals graph.NewSchema of the graph's types.
func TestGraphsWholeWhenMade(t *testing.T) {
	srcs := []graphtest.Named{{Name: "fig1", Graph: fig1.Graph()}}
	for _, d := range freebase.Domains() {
		g, err := freebase.Generate(d, freebase.DefaultGenOptions())
		if err != nil {
			t.Fatal(err)
		}
		srcs = append(srcs, graphtest.Named{Name: d, Graph: g})
	}
	// The walk is not under test: a loose solve keeps the publications
	// short under -race.
	walk := score.DefaultWalkOptions()
	walk.Tolerance, walk.MaxIter = 1e-3, 20
	for _, src := range srcs {
		t.Run(src.Name, func(t *testing.T) {
			checkWhole(t, "assembled", src.Graph)
			var buf bytes.Buffer
			if err := storage.Write(&buf, src.Graph); err != nil {
				t.Fatal(err)
			}
			loaded, err := storage.Read(&buf)
			if err != nil {
				t.Fatal(err)
			}
			checkWhole(t, "read", loaded)
			g, err := FromEntityGraph(src.Graph)
			if err != nil {
				t.Fatal(err)
			}
			live, err := NewLive(g, walk)
			if err != nil {
				t.Fatal(err)
			}
			checkWhole(t, "opened", live.Snapshot().Frozen)
			rng := rand.New(rand.NewSource(1))
			for i := 0; i < 5; i++ {
				snap, err := live.Apply(func(g *Graph) error { return writeBatch(rng, g) })
				if err != nil {
					t.Fatal(err)
				}
				checkWhole(t, "derived", snap.Frozen)
			}
		})
	}
}

// checkWhole checks that g's first NameOrder and Schema calls allocate
// nothing and return what a fresh sort and graph.NewSchema give.
func checkWhole(t *testing.T, what string, g *graph.EntityGraph) {
	t.Helper()
	calls := 0
	allocs := testing.AllocsPerRun(1, func() {
		if calls++; calls > 1 { // the first call is AllocsPerRun's warm-up
			g.NameOrder()
			g.Schema()
		}
	})
	if allocs != 0 {
		t.Fatalf("%s: the first NameOrder and Schema calls allocated %v times", what, allocs)
	}
	if err := graphtest.CheckNames(g); err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	if err := graphtest.CheckSchema(g); err != nil {
		t.Fatalf("%s: %v", what, err)
	}
}
