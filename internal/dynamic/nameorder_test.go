package dynamic

import (
	"math/rand"
	"sort"
	"testing"

	"github.com/uta-db/previewtables/internal/fig1"
	"github.com/uta-db/previewtables/internal/graph"
	"github.com/uta-db/previewtables/internal/score"
)

// checkFreshOrder compares a snapshot's name order, which must already
// exist, with a sort of its names.
func checkFreshOrder(t *testing.T, what string, snap *Snapshot) {
	t.Helper()
	g := snap.Frozen
	if !g.HasNameOrder() {
		t.Fatalf("%s, epoch %d: no name order carried", what, snap.Epoch)
	}
	byName := make([]graph.EntityID, g.NumEntities())
	for i := range byName {
		byName[i] = graph.EntityID(i)
	}
	sort.Slice(byName, func(i, j int) bool { return g.EntityName(byName[i]) < g.EntityName(byName[j]) })
	for r, e := range byName {
		if got := g.NameOrder().Rank(e); got != int32(r) {
			t.Fatalf("%s, epoch %d: %q ranks %d, want %d", what, snap.Epoch, g.EntityName(e), got, r)
		}
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
// publish, at every epoch, a snapshot that already has its name order,
// equal to a fresh sort of its names. A batch that adds no entity shares
// its predecessor's order. A live graph whose first snapshot was never
// rendered stays lazy.
func TestLiveNameOrderCarried(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		leader, follower, lazy := newLiveFromFig1(t), newLiveFromFig1(t), newLiveFromFig1(t)
		leader.Snapshot().Frozen.NameOrder()
		follower.Snapshot().Frozen.NameOrder()
		rngs := [3]*rand.Rand{}
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
			if snap.Stats.Entities == prev.Stats.Entities {
				shared++
				if snap.Frozen.NameOrder() != prev.Frozen.NameOrder() {
					t.Fatalf("seed %d epoch %d: a batch without new entities re-derived the order", seed, epoch)
				}
			} else {
				grown++
			}
			shipped, err := follower.ApplyShipped(epoch, 0, nil, func(g *Graph) error { return writeBatch(rngs[1], g) })
			if err != nil {
				t.Fatal(err)
			}
			checkFreshOrder(t, "follower", shipped)
			quiet, err := lazy.Apply(func(g *Graph) error { return writeBatch(rngs[2], g) })
			if err != nil {
				t.Fatal(err)
			}
			if quiet.Frozen.HasNameOrder() {
				t.Fatalf("seed %d epoch %d: an order appeared on a graph no one rendered", seed, epoch)
			}
		}
		if shared == 0 || grown == 0 || structural == 0 {
			t.Fatalf("seed %d: the stream needs batches with and without new entities and structural ones (%d, %d, %d)",
				seed, shared, grown, structural)
		}
	}
}
