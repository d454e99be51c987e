package dynamic_test

// The incremental refresh inherits its parallelism from the WalkOptions
// every call already threads through; this test proves it emits
// bit-identical score sets at any worker count, batch after batch.

import (
	"testing"

	"github.com/uta-db/previewtables/internal/dynamic"
	"github.com/uta-db/previewtables/internal/freebase"
	"github.com/uta-db/previewtables/internal/graph"
	"github.com/uta-db/previewtables/internal/score"
)

func TestIncrementalRefreshParallelBitIdentical(t *testing.T) {
	src, err := freebase.Generate("basketball", freebase.GenOptions{
		Scale: 1e-4, Seed: 21, MinEntities: 300, MinEdges: 1200,
	})
	if err != nil {
		t.Fatal(err)
	}

	seqOpts := score.DefaultWalkOptions()
	parOpts := seqOpts
	parOpts.Parallelism = 4

	mk := func() *dynamic.Graph {
		g, err := dynamic.FromEntityGraph(src)
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	seqG, parG := mk(), mk()

	// Same update stream against both graphs: a few batches of edges
	// between existing entities, refreshing (and comparing) after each.
	rel := graph.RelTypeID(0)
	rt := src.RelType(rel)
	froms := src.EntitiesOfType(rt.From)
	tos := src.EntitiesOfType(rt.To)
	for batch := 0; batch < 4; batch++ {
		for j := 0; j < 8; j++ {
			from := froms[(batch*13+j*7)%len(froms)]
			to := tos[(batch*11+j*5)%len(tos)]
			if err := seqG.AddEdge(from, to, rel); err != nil {
				t.Fatal(err)
			}
			if err := parG.AddEdge(from, to, rel); err != nil {
				t.Fatal(err)
			}
		}
		seqSet, err := seqG.Scores(seqOpts)
		if err != nil {
			t.Fatal(err)
		}
		parSet, err := parG.Scores(parOpts)
		if err != nil {
			t.Fatal(err)
		}
		s := seqSet.Schema()
		for ti := 0; ti < s.NumTypes(); ti++ {
			tid := graph.TypeID(ti)
			for _, km := range []score.KeyMeasure{score.KeyCoverage, score.KeyRandomWalk} {
				if a, b := seqSet.Key(km, tid), parSet.Key(km, tid); a != b {
					t.Fatalf("batch %d: key %v score of type %d diverges: %v vs %v", batch, km, ti, a, b)
				}
			}
			for i := range s.Incident(tid) {
				for _, nm := range []score.NonKeyMeasure{score.NonKeyCoverage, score.NonKeyEntropy} {
					if a, b := seqSet.NonKey(nm, tid, i), parSet.NonKey(nm, tid, i); a != b {
						t.Fatalf("batch %d: non-key %v score of (%d, %d) diverges: %v vs %v", batch, nm, ti, i, a, b)
					}
				}
			}
		}
	}
}
