package dynamic

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"github.com/uta-db/previewtables/internal/fig1"
	"github.com/uta-db/previewtables/internal/graph"
	"github.com/uta-db/previewtables/internal/score"
)

// measureCounts is an independent reference for a batch's Dirty set:
// per type of a snapshot's graph, its coverage plus the instance counts
// of its incident relationship types. Both only ever grow, and every
// change to a type's measure inputs grows one of them, so a batch's Dirty
// set is exactly the types whose sum moved.
func measureCounts(g *graph.EntityGraph) []int {
	c := make([]int, g.NumTypes())
	for t := range c {
		c[t] = g.TypeCoverage(graph.TypeID(t))
	}
	for r := 0; r < g.NumRelTypes(); r++ {
		rt := g.RelType(graph.RelTypeID(r))
		c[rt.From] += rt.EdgeCount
		c[rt.To] += rt.EdgeCount
	}
	return c
}

// applyStream draws batches write batches from rng and runs them
// through apply, one per epoch after the live graph's current one, and
// returns every snapshot from the current one on. Each non-structural
// batch's Dirty set must equal the measureCounts reference; a structural
// one's must be nil.
func applyStream(t *testing.T, what string, live *Live, rng *rand.Rand, batches int,
	apply func(epoch uint64, mutate func(*Graph) error) (*Snapshot, error)) []*Snapshot {
	t.Helper()
	snaps := []*Snapshot{live.Snapshot()}
	for i := 0; i < batches; i++ {
		before := measureCounts(snaps[i].Frozen)
		snap, err := apply(snaps[i].Epoch+1, func(g *Graph) error { return writeBatch(rng, g) })
		if err != nil {
			t.Fatal(err)
		}
		var want []graph.TypeID
		if !snap.Structural {
			for ty, c := range measureCounts(snap.Frozen) {
				if c != before[ty] {
					want = append(want, graph.TypeID(ty))
				}
			}
		}
		if !slices.Equal(snap.Dirty, want) {
			t.Fatalf("%s: epoch %d: Dirty %v, want %v", what, snap.Epoch, snap.Dirty, want)
		}
		snaps = append(snaps, snap)
	}
	return snaps
}

// checkDirtySince requires, for every pair of published epochs from < to
// in snaps (consecutive, oldest first), that the to snapshot's
// DirtySince(from) is the sorted union of the per-batch Dirty sets over
// (from, to], and structural exactly when some publication in that range
// was. An epoch before the first snapshot predates the live graph, so
// nothing spans it.
func checkDirtySince(t *testing.T, what string, snaps []*Snapshot) {
	t.Helper()
	for j, to := range snaps {
		moved := map[graph.TypeID]bool{}
		structural := false
		for i := j; i > 0; i-- {
			// The range (snaps[i-1].Epoch, to.Epoch] gains snaps[i].
			for _, ty := range snaps[i].Dirty {
				moved[ty] = true
			}
			structural = structural || snaps[i].Structural
			var want []graph.TypeID
			if !structural {
				for ty := range moved {
					want = append(want, ty)
				}
				slices.Sort(want)
			}
			from := snaps[i-1].Epoch
			got, gotStructural := to.DirtySince(from)
			if gotStructural != structural || !slices.Equal(got, want) {
				t.Fatalf("%s: epoch %d DirtySince(%d) = (%v, %v), want (%v, %v)",
					what, to.Epoch, from, got, gotStructural, want, structural)
			}
		}
		if first := snaps[0].Epoch; first > 0 {
			if dirty, structural := to.DirtySince(first - 1); !structural || dirty != nil {
				t.Fatalf("%s: epoch %d DirtySince(%d), before the first publication, = (%v, %v), want (nil, true)",
					what, to.Epoch, first-1, dirty, structural)
			}
		}
	}
}

// TestDirtySinceMatchesUnion: over seeded write streams with structural
// batches, a snapshot's DirtySince(from) is the union of the per-batch
// deltas since from, for every pair of epochs, whether the batches were
// applied by a leader (Apply), shipped to a follower (ApplyShipped), or
// applied after a recovery republished the graph at a later epoch
// (NewLiveAt). Follower and recovered graph move exactly as the leader
// did.
func TestDirtySinceMatchesUnion(t *testing.T) {
	const batches = 40
	// The change history does not depend on the walk measure, so a capped
	// power iteration keeps the streams cheap under the race detector.
	walk := score.DefaultWalkOptions()
	walk.MaxIter = 8
	// fig1At replays the stream's first epoch batches onto the Fig. 1
	// graph directly, as RecoverLive replays a WAL tail, and publishes the
	// result at that epoch.
	fig1At := func(epoch uint64, rng *rand.Rand) *Live {
		g, err := FromEntityGraph(fig1.Graph())
		if err != nil {
			t.Fatal(err)
		}
		for i := uint64(0); i < epoch; i++ {
			if err := writeBatch(rng, g); err != nil {
				t.Fatal(err)
			}
		}
		live, err := NewLiveAt(g, walk, epoch)
		if err != nil {
			t.Fatal(err)
		}
		return live
	}
	for seed := int64(1); seed <= 4; seed++ {
		rngs := [3]*rand.Rand{}
		for i := range rngs {
			rngs[i] = rand.New(rand.NewSource(seed))
		}
		leader, follower, recovered := fig1At(0, rngs[0]), fig1At(0, rngs[1]), fig1At(batches/2, rngs[2])
		applied := applyStream(t, fmt.Sprintf("leader seed %d", seed), leader, rngs[0], batches,
			func(_ uint64, mutate func(*Graph) error) (*Snapshot, error) { return leader.Apply(mutate) })
		shipped := applyStream(t, fmt.Sprintf("follower seed %d", seed), follower, rngs[1], batches,
			func(epoch uint64, mutate func(*Graph) error) (*Snapshot, error) {
				return follower.ApplyShipped(epoch, 0, nil, mutate)
			})
		resumed := applyStream(t, fmt.Sprintf("recovered seed %d", seed), recovered, rngs[2], batches/2,
			func(_ uint64, mutate func(*Graph) error) (*Snapshot, error) {
				return recovered.ApplyBatch(0, nil, mutate)
			})
		if !resumed[0].Structural {
			t.Fatalf("seed %d: the recovered publication is not structural", seed)
		}

		var structural int
		for e, snap := range applied {
			if snap.Structural {
				structural++
			}
			if s := shipped[e]; s.Epoch != snap.Epoch || s.Structural != snap.Structural || !slices.Equal(s.Dirty, snap.Dirty) {
				t.Fatalf("seed %d epoch %d: follower moved (%v, %v), leader (%v, %v)", seed, snap.Epoch, s.Dirty, s.Structural, snap.Dirty, snap.Structural)
			}
			if e > batches/2 {
				if s := resumed[e-batches/2]; s.Epoch != snap.Epoch || s.Structural != snap.Structural || !slices.Equal(s.Dirty, snap.Dirty) {
					t.Fatalf("seed %d epoch %d: recovered graph moved (%v, %v), leader (%v, %v)", seed, snap.Epoch, s.Dirty, s.Structural, snap.Dirty, snap.Structural)
				}
			}
		}
		if structural < 2 || structural > batches/2 {
			t.Fatalf("seed %d: %d of %d publications structural; the stream needs both kinds", seed, structural, batches+1)
		}
		checkDirtySince(t, fmt.Sprintf("leader seed %d", seed), applied)
		checkDirtySince(t, fmt.Sprintf("follower seed %d", seed), shipped)
		checkDirtySince(t, fmt.Sprintf("recovered seed %d", seed), resumed)
	}
}
