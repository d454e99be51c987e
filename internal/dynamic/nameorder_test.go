package dynamic

import (
	"math/rand"
	"testing"

	"github.com/uta-db/previewtables/internal/fig1"
	"github.com/uta-db/previewtables/internal/graph/graphtest"
	"github.com/uta-db/previewtables/internal/score"
)

// checkFreshOrder compares a snapshot's name order with a sort of its
// names, and its name lookups with a map of them.
func checkFreshOrder(t *testing.T, what string, snap *Snapshot) {
	t.Helper()
	if err := graphtest.CheckNames(snap.Frozen); err != nil {
		t.Fatalf("%s, epoch %d: %v", what, snap.Epoch, err)
	}
}

func newLiveFromFig1(t *testing.T) *Live {
	t.Helper()
	g, err := FromEntityGraph(fig1.Graph())
	if err != nil {
		t.Fatal(err)
	}
	live, err := NewLive(g, score.DefaultWalkOptions())
	if err != nil {
		t.Fatal(err)
	}
	return live
}

// TestLiveNameOrderCarried: over seeded write streams with structural
// batches and new entities whose names share prefixes ("n1", "n10"), a
// leader applying each batch and a follower applying it as shipped both
// publish, at every epoch, a snapshot whose name order equals a fresh
// sort of its names.
func TestLiveNameOrderCarried(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		leader, follower := newLiveFromFig1(t), newLiveFromFig1(t)
		checkFreshOrder(t, "leader", leader.Snapshot())
		rngs := [2]*rand.Rand{}
		for i := range rngs {
			rngs[i] = rand.New(rand.NewSource(seed))
		}
		var shared, grown, structural int
		for epoch := uint64(1); epoch <= 24; epoch++ {
			prev := leader.Snapshot()
			snap, err := leader.ApplyBatch(0, nil, func(g *Graph) error { return writeBatch(rngs[0], g) })
			if err != nil {
				t.Fatal(err)
			}
			checkFreshOrder(t, "leader", snap)
			if snap.Structural {
				structural++
			}
			if snap.Frozen.NumEntities() == prev.Frozen.NumEntities() {
				shared++
			} else {
				grown++
			}
			shipped, err := follower.ApplyShipped(epoch, 0, nil, func(g *Graph) error { return writeBatch(rngs[1], g) })
			if err != nil {
				t.Fatal(err)
			}
			checkFreshOrder(t, "follower", shipped)
		}
		if shared == 0 || grown == 0 || structural == 0 {
			t.Fatalf("seed %d: the stream needs batches with and without new entities and structural ones (%d, %d, %d)",
				seed, shared, grown, structural)
		}
	}
}
