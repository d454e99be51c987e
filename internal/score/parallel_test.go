package score_test

// Bit-identity tests for WalkOptions.Parallelism: the walk and every
// score must be the same to the last bit at any worker count.

import (
	"testing"

	"github.com/uta-db/previewtables/internal/freebase"
	"github.com/uta-db/previewtables/internal/graph"
	"github.com/uta-db/previewtables/internal/score"
)

func TestStationaryDistributionParallelBitIdentical(t *testing.T) {
	for _, domain := range []string{"basketball", "music", "books"} {
		g, err := freebase.Generate(domain, freebase.GenOptions{
			Scale: 1e-4, Seed: 11, MinEntities: 300, MinEdges: 1200,
		})
		if err != nil {
			t.Fatal(err)
		}
		s := g.Schema()

		seqOpts := score.DefaultWalkOptions()
		parOpts := seqOpts
		parOpts.Parallelism = 5 // deliberately not a divisor of most type counts

		cold := score.StationaryDistribution(s, seqOpts)
		coldPar := score.StationaryDistribution(s, parOpts)
		if len(cold) != len(coldPar) {
			t.Fatalf("%s: length mismatch %d vs %d", domain, len(cold), len(coldPar))
		}
		for i := range cold {
			if cold[i] != coldPar[i] {
				t.Fatalf("%s: cold walk diverges at type %d: sequential %v, parallel %v", domain, i, cold[i], coldPar[i])
			}
		}
	}
}

func TestEntropyRepeatedCallsBitIdentical(t *testing.T) {
	// Entropy must not let map iteration order into its floating-point
	// accumulation: repeated calls return the same bits.
	g, err := freebase.Generate("tv", freebase.GenOptions{
		Scale: 1e-4, Seed: 13, MinEntities: 300, MinEdges: 1200,
	})
	if err != nil {
		t.Fatal(err)
	}
	s := g.Schema()
	for ti := 0; ti < s.NumTypes(); ti++ {
		for _, inc := range s.Incident(graph.TypeID(ti)) {
			first := score.Entropy(g, graph.TypeID(ti), inc)
			for rep := 0; rep < 5; rep++ {
				if got := score.Entropy(g, graph.TypeID(ti), inc); got != first {
					t.Fatalf("type %d: Entropy differs between calls: %v vs %v", ti, first, got)
				}
			}
		}
	}
}
