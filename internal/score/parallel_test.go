package score_test

// Bit-identity tests for the parallel walk: the blocked matrix-vector
// step must reproduce the sequential power iteration exactly — same
// iterate at every step, therefore the same iteration count and the same
// fixed point to the last bit.

import (
	"fmt"
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

// TestStationaryDistributionParallelLargeSchema exercises the blocked
// parallel path proper: the shipped Table 2 schemas stay below the
// walk's parallel threshold (the per-iteration pool would cost more than
// the step), so this builds a synthetic schema well above it and checks
// the worker pool reproduces the sequential fixed point bit for bit.
func TestStationaryDistributionParallelLargeSchema(t *testing.T) {
	var b graph.Builder
	const nTypes = 600 // comfortably above walkParallelThreshold
	types := make([]graph.TypeID, nTypes)
	for i := range types {
		types[i] = b.Type(fmt.Sprintf("T%03d", i))
	}
	// A connected, irregular weighted schema: a chain plus pseudo-random
	// chords, with edge counts driven by entity degree.
	for i := 0; i < nTypes; i++ {
		next := (i + 1) % nTypes
		chord := (i*i*31 + 7) % nTypes
		rel := b.RelType(fmt.Sprintf("chain%03d", i), types[i], types[next])
		for e := 0; e < 1+i%5; e++ {
			b.Edge(b.Entity(fmt.Sprintf("e%d-%d", i, e), types[i]), b.Entity(fmt.Sprintf("e%d-0", next), types[next]), rel)
		}
		if chord != i && chord != next {
			rel := b.RelType(fmt.Sprintf("chord%03d", i), types[i], types[chord])
			b.Edge(b.Entity(fmt.Sprintf("e%d-0", i), types[i]), b.Entity(fmt.Sprintf("e%d-0", chord), types[chord]), rel)
		}
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	s := g.Schema()
	if s.NumTypes() != nTypes {
		t.Fatalf("built %d types, want %d", s.NumTypes(), nTypes)
	}

	seqOpts := score.DefaultWalkOptions()
	for _, workers := range []int{2, 3, 7} {
		parOpts := seqOpts
		parOpts.Parallelism = workers
		seq := score.StationaryDistribution(s, seqOpts)
		parPi := score.StationaryDistribution(s, parOpts)
		for i := range seq {
			if seq[i] != parPi[i] {
				t.Fatalf("workers=%d: walk diverges at type %d: sequential %v, parallel %v", workers, i, seq[i], parPi[i])
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
