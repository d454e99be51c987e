package dynamic_test

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"github.com/uta-db/previewtables/internal/dynamic"
	"github.com/uta-db/previewtables/internal/graph"
	"github.com/uta-db/previewtables/internal/score"
)

func newFig1Live(t *testing.T) *dynamic.Live {
	t.Helper()
	live, err := dynamic.NewLive(buildFig1Dynamic(t), score.DefaultWalkOptions())
	if err != nil {
		t.Fatal(err)
	}
	return live
}

func TestLivePublishesEpochs(t *testing.T) {
	live := newFig1Live(t)
	snap := live.Snapshot()
	if snap.Epoch != 0 {
		t.Fatalf("initial epoch = %d, want 0", snap.Epoch)
	}
	if st := snap.Frozen.Stats(); st.Edges != 21 {
		t.Fatalf("initial stats = %+v", st)
	}

	next, err := live.Apply(func(g *dynamic.Graph) error {
		film, _ := g.TypeByName("FILM")
		genre, _ := g.TypeByName("FILM GENRE")
		rel, err := g.RelType("Genres", film, genre)
		if err != nil {
			return err
		}
		return g.AddEdge(g.Entity("Hancock", film), g.Entity("Action Film", genre), rel)
	})
	if err != nil {
		t.Fatal(err)
	}
	if next.Epoch != 1 || live.Snapshot() != next {
		t.Fatalf("epoch after one batch = %d (current %p, want %p)", next.Epoch, live.Snapshot(), next)
	}
	if st := next.Frozen.Stats(); st.Edges != 22 {
		t.Fatalf("edges after batch = %d, want 22", st.Edges)
	}
	// The old snapshot is untouched: copy-on-write, not in-place.
	if st := snap.Frozen.Stats(); st.Edges != 21 {
		t.Fatalf("published snapshot mutated: %+v", st)
	}
}

func TestLiveFailedBatchPublishesNothing(t *testing.T) {
	live := newFig1Live(t)
	before := live.Snapshot()
	boom := errors.New("validation failed")
	if _, err := live.Apply(func(g *dynamic.Graph) error { return boom }); !errors.Is(err, boom) {
		t.Fatalf("Apply error = %v, want %v", err, boom)
	}
	if snap := live.Snapshot(); snap != before || snap.Epoch != 0 {
		t.Fatal("failed batch published an epoch")
	}
}

// TestLiveRandomStreamsMatchCompute is the incremental-vs-batch
// cross-check on the live facade: after every randomized update batch,
// the incrementally refreshed score set must equal score.Compute on the
// published frozen graph bit for bit under every measure. Randomized
// streams keep the entropy bookkeeping honest (tuple and group-size
// moves in every order). Streams draw parallel duplicate (from, rel, to)
// triples too: the published graph counts every copy, as the live
// counters do.
func TestLiveRandomStreamsMatchCompute(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			var dg dynamic.Graph
			nTypes := rng.Intn(5) + 2
			types := make([]graph.TypeID, nTypes)
			for i := range types {
				types[i] = dg.Type(fmt.Sprintf("T%d", i))
			}
			var rels []graph.RelTypeID
			for i := 0; i < rng.Intn(6)+2; i++ {
				r, err := dg.RelType(fmt.Sprintf("r%d", i), types[rng.Intn(nTypes)], types[rng.Intn(nTypes)])
				if err != nil {
					t.Fatal(err)
				}
				rels = append(rels, r)
			}
			nEnts := rng.Intn(30) + 6
			for i := 0; i < nEnts; i++ {
				dg.Entity(fmt.Sprintf("e%d", i), types[rng.Intn(nTypes)])
			}
			live, err := dynamic.NewLive(&dg, score.DefaultWalkOptions())
			if err != nil {
				t.Fatal(err)
			}

			for batch := 0; batch < 6; batch++ {
				snap, err := live.Apply(func(g *dynamic.Graph) error {
					// Each batch may also grow the universe: new entities,
					// occasionally a whole new relationship type.
					if rng.Intn(3) == 0 {
						g.Entity(fmt.Sprintf("e%d-%d", batch, rng.Intn(100)), types[rng.Intn(nTypes)])
					}
					if rng.Intn(4) == 0 {
						r, err := g.RelType(fmt.Sprintf("r-batch%d", batch), types[rng.Intn(nTypes)], types[rng.Intn(nTypes)])
						if err != nil {
							return err
						}
						rels = append(rels, r)
					}
					st := g.Stats()
					for i := 0; i < rng.Intn(10)+1; i++ {
						from := graph.EntityID(rng.Intn(st.Entities))
						to := graph.EntityID(rng.Intn(st.Entities))
						rel := rels[rng.Intn(len(rels))]
						if err := g.AddEdge(from, to, rel); err != nil {
							return err
						}
					}
					return nil
				})
				if err != nil {
					t.Fatal(err)
				}
				if snap.Epoch != uint64(batch)+1 {
					t.Fatalf("batch %d published epoch %d", batch, snap.Epoch)
				}
				if err := snap.Frozen.Validate(); err != nil {
					t.Fatalf("batch %d frozen graph invalid: %v", batch, err)
				}
				batchSet := score.Compute(snap.Frozen, score.DefaultWalkOptions())
				assertSetsEqual(t, snap.Scores, batchSet)
				if t.Failed() {
					t.Fatalf("batch %d: incremental refresh drifted from score.Compute", batch)
				}
			}
		})
	}
}

// TestLiveConcurrentApplyAndRead hammers the facade directly (the HTTP
// equivalent lives in internal/service): writers apply disjoint batches
// while readers continuously load snapshots, asserting epochs are
// monotone per reader and every snapshot is internally consistent.
func TestLiveConcurrentApplyAndRead(t *testing.T) {
	live := newFig1Live(t)
	const writers, batches, readers = 4, 6, 4

	var writersWG, readersWG sync.WaitGroup
	errs := make(chan error, writers*batches+readers)
	done := make(chan struct{})
	for w := 0; w < writers; w++ {
		w := w
		writersWG.Add(1)
		go func() {
			defer writersWG.Done()
			for b := 0; b < batches; b++ {
				_, err := live.Apply(func(g *dynamic.Graph) error {
					film, _ := g.TypeByName("FILM")
					genre, _ := g.TypeByName("FILM GENRE")
					rel, err := g.RelType("Genres", film, genre)
					if err != nil {
						return err
					}
					return g.AddEdge(
						g.Entity(fmt.Sprintf("Film w%d b%d", w, b), film),
						g.Entity("Action Film", genre), rel)
				})
				if err != nil {
					errs <- err
				}
			}
		}()
	}
	for r := 0; r < readers; r++ {
		readersWG.Add(1)
		go func() {
			defer readersWG.Done()
			var last uint64
			for {
				select {
				case <-done:
					return
				default:
				}
				snap := live.Snapshot()
				if snap.Epoch < last {
					errs <- fmt.Errorf("epoch regressed: %d after %d", snap.Epoch, last)
					return
				}
				last = snap.Epoch
				if got, want := snap.Scores.Schema().NumTypes(), snap.Frozen.Stats().Types; got != want {
					errs <- fmt.Errorf("snapshot %d inconsistent: %d score types vs %d stats types", snap.Epoch, got, want)
					return
				}
			}
		}()
	}
	// Readers stop once every writer has finished (success or failure), so
	// a failing batch surfaces as a test error instead of a hang.
	writersWG.Wait()
	close(done)
	readersWG.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	snap := live.Snapshot()
	if snap.Epoch != writers*batches {
		t.Fatalf("final epoch %d, want %d", snap.Epoch, writers*batches)
	}
	batchSet := score.Compute(snap.Frozen, score.DefaultWalkOptions())
	assertSetsEqual(t, snap.Scores, batchSet)
}

// addHancockGenre is the canonical one-edge test batch.
func addHancockGenre(g *dynamic.Graph) error {
	film, _ := g.TypeByName("FILM")
	genre, _ := g.TypeByName("FILM GENRE")
	rel, err := g.RelType("Genres", film, genre)
	if err != nil {
		return err
	}
	return g.AddEdge(g.Entity("Hancock", film), g.Entity("Action Film", genre), rel)
}

// TestLiveDurabilityHookOrdering pins the write-ahead contract: the hook
// sees the batch — with the epoch it will create — strictly before that
// epoch is published, and a batch that fails validation never reaches
// the hook.
func TestLiveDurabilityHookOrdering(t *testing.T) {
	live := newFig1Live(t)
	type logged struct {
		epoch          uint64
		kind           byte
		payload        string
		publishedEpoch uint64 // epoch visible to readers at hook time
	}
	var log []logged
	live.SetDurability(func(epoch uint64, kind byte, payload []byte) error {
		log = append(log, logged{epoch, kind, string(payload), live.Snapshot().Epoch})
		return nil
	})

	snap, err := live.ApplyBatch(7, []byte("batch-1"), addHancockGenre)
	if err != nil {
		t.Fatal(err)
	}
	if snap.Epoch != 1 {
		t.Fatalf("epoch = %d, want 1", snap.Epoch)
	}
	if len(log) != 1 || log[0].epoch != 1 || log[0].kind != 7 || log[0].payload != "batch-1" {
		t.Fatalf("hook saw %+v", log)
	}
	if log[0].publishedEpoch != 0 {
		t.Fatalf("epoch %d was published before the hook ran", log[0].publishedEpoch)
	}

	boom := errors.New("validation failed")
	if _, err := live.ApplyBatch(7, []byte("bad"), func(*dynamic.Graph) error { return boom }); !errors.Is(err, boom) {
		t.Fatalf("failed batch error = %v", err)
	}
	if len(log) != 1 {
		t.Fatalf("failed batch reached the hook: %+v", log)
	}
}

// TestLiveDurabilityFailureWedges: a hook failure publishes nothing and
// poisons the facade — memory and log may now disagree, so every later
// write fails with ErrWedged while reads keep the last published epoch.
func TestLiveDurabilityFailureWedges(t *testing.T) {
	live := newFig1Live(t)
	diskFull := errors.New("disk full")
	calls := 0
	live.SetDurability(func(uint64, byte, []byte) error { calls++; return diskFull })
	before := live.Snapshot()

	if _, err := live.ApplyBatch(1, []byte("b"), addHancockGenre); !errors.Is(err, diskFull) {
		t.Fatalf("ApplyBatch error = %v, want the hook's", err)
	}
	if snap := live.Snapshot(); snap != before || snap.Epoch != 0 {
		t.Fatal("failed log write published an epoch")
	}
	if _, err := live.ApplyBatch(1, []byte("b2"), addHancockGenre); !errors.Is(err, dynamic.ErrWedged) {
		t.Fatalf("post-failure ApplyBatch error = %v, want ErrWedged", err)
	}
	if calls != 1 {
		t.Fatalf("hook ran %d times after wedging, want 1", calls)
	}
	if live.Snapshot() != before {
		t.Fatal("wedged graph still publishing")
	}
}

// TestLiveApplyRefusedWhenDurable: the payload-less Apply cannot be
// replayed, so a durable facade rejects it outright.
func TestLiveApplyRefusedWhenDurable(t *testing.T) {
	live := newFig1Live(t)
	live.SetDurability(func(uint64, byte, []byte) error { return nil })
	if _, err := live.Apply(addHancockGenre); err == nil {
		t.Fatal("volatile Apply accepted on a durable live graph")
	}
	live.SetDurability(nil)
	if _, err := live.Apply(addHancockGenre); err != nil {
		t.Fatalf("Apply after removing the hook: %v", err)
	}
}

// TestNewLiveAtResumesEpoch: recovery republishes at the recovered
// epoch, and the next batch continues the sequence seamlessly.
func TestNewLiveAtResumesEpoch(t *testing.T) {
	live, err := dynamic.NewLiveAt(buildFig1Dynamic(t), score.DefaultWalkOptions(), 42)
	if err != nil {
		t.Fatal(err)
	}
	if got := live.Snapshot().Epoch; got != 42 {
		t.Fatalf("resumed epoch = %d, want 42", got)
	}
	snap, err := live.ApplyBatch(1, []byte("b"), addHancockGenre)
	if err != nil {
		t.Fatal(err)
	}
	if snap.Epoch != 43 {
		t.Fatalf("epoch after resumed batch = %d, want 43", snap.Epoch)
	}
}

// TestLivePublishFailureAfterLogWedges: once the hook has appended the
// batch, a publish failure leaves log and memory disagreeing with the
// served epoch — the facade must wedge exactly as it does for a hook
// failure, because the logged batch will materialize on restart despite
// the error response.
func TestLivePublishFailureAfterLogWedges(t *testing.T) {
	live := newFig1Live(t)
	logged := 0
	live.SetDurability(func(uint64, byte, []byte) error { logged++; return nil })
	before := live.Snapshot()

	// A typeless entity breaks Freeze, so publication fails after the
	// (infallible here) mutation and the successful log append.
	_, err := live.ApplyBatch(1, []byte("b"), func(g *dynamic.Graph) error {
		g.Entity("orphan with no type")
		return nil
	})
	if err == nil {
		t.Fatal("publication of a typeless entity succeeded")
	}
	if logged != 1 {
		t.Fatalf("hook ran %d times, want 1", logged)
	}
	if live.Snapshot() != before {
		t.Fatal("failed publication swapped the snapshot")
	}
	if _, err := live.ApplyBatch(1, []byte("b2"), addHancockGenre); !errors.Is(err, dynamic.ErrWedged) {
		t.Fatalf("post-publish-failure write error = %v, want ErrWedged", err)
	}
	if logged != 1 {
		t.Fatalf("wedged facade still logging: %d", logged)
	}
}

// TestApplyShippedEnforcesLeaderEpoch: the follower apply path accepts a
// batch only at exactly the next epoch — a stale epoch (already applied)
// and a gapped epoch (records lost in transit) are both refused without
// mutating anything — and an accepted batch runs through the same
// durability hook and publication as a local write.
func TestApplyShippedEnforcesLeaderEpoch(t *testing.T) {
	live := newFig1Live(t)
	var hooked []uint64
	live.SetDurability(func(epoch uint64, kind byte, payload []byte) error {
		hooked = append(hooked, epoch)
		return nil
	})

	snap, err := live.ApplyShipped(1, 7, []byte("shipped-1"), addHancockGenre)
	if err != nil {
		t.Fatal(err)
	}
	if snap.Epoch != 1 || live.Snapshot() != snap {
		t.Fatalf("shipped batch published epoch %d, want 1", snap.Epoch)
	}
	if len(hooked) != 1 || hooked[0] != 1 {
		t.Fatalf("durability hook saw %v, want [1]", hooked)
	}

	before := live.Snapshot()
	mutations := 0
	count := func(g *dynamic.Graph) error { mutations++; return addHancockGenre(g) }
	if _, err := live.ApplyShipped(1, 7, []byte("replayed"), count); err == nil {
		t.Fatal("stale shipped epoch accepted")
	}
	if _, err := live.ApplyShipped(3, 7, []byte("gap"), count); err == nil {
		t.Fatal("gapped shipped epoch accepted")
	}
	if mutations != 0 {
		t.Fatalf("refused shipped batches ran their mutation %d times", mutations)
	}
	if live.Snapshot() != before || len(hooked) != 1 {
		t.Fatal("refused shipped batch published or logged")
	}

	if snap, err = live.ApplyShipped(2, 7, []byte("shipped-2"), addHancockGenre); err != nil || snap.Epoch != 2 {
		t.Fatalf("next shipped epoch: snap %v err %v", snap, err)
	}

	// A wedged facade refuses shipped batches like any other write.
	live.SetDurability(func(uint64, byte, []byte) error { return errors.New("disk full") })
	if _, err := live.ApplyShipped(3, 7, []byte("b"), addHancockGenre); err == nil {
		t.Fatal("hook failure not surfaced")
	}
	if _, err := live.ApplyShipped(3, 7, []byte("b"), addHancockGenre); !errors.Is(err, dynamic.ErrWedged) {
		t.Fatalf("post-failure shipped batch error = %v, want ErrWedged", err)
	}
}
