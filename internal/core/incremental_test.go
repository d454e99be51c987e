package core_test

// Differential suite for incremental discovery: a Maintained state
// carried across the epochs of a randomized live-update workload must
// answer every constraint exactly as a cold Discoverer built from that
// epoch's score set — same tables, same scores, same errors — while
// actually exercising the certificate fast path (asserted via the
// full-search counter). This is the tentpole correctness property:
// incrementality must be invisible in results, visible only in work.

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"github.com/uta-db/previewtables/internal/core"
	"github.com/uta-db/previewtables/internal/dynamic"
	"github.com/uta-db/previewtables/internal/graph"
	"github.com/uta-db/previewtables/internal/score"
)

// incrementalConstraints sweeps all three modes, including a tiny-budget
// constraint (error certificates must carry across epochs) and an
// infeasible diverse distance (ErrNoPreview certificates likewise). The
// concise rows share one (k, n), and so one memoized answer per epoch,
// under different D and budgets; the last has k above the type count, so
// its memoized answer is ErrNoPreview.
func incrementalConstraints() []core.Constraint {
	return []core.Constraint{
		{K: 2, N: 5, Mode: core.Concise},
		{K: 2, N: 5, Mode: core.Concise, D: 3},
		{K: 2, N: 5, Mode: core.Concise, D: 1, MaxCandidates: 1},
		{K: 12, N: 12, Mode: core.Concise},
		{K: 2, N: 4, Mode: core.Tight, D: 2},
		{K: 3, N: 6, Mode: core.Tight, D: 3},
		{K: 2, N: 4, Mode: core.Diverse, D: 2},
		{K: 3, N: 6, Mode: core.Diverse, D: 1},
		{K: 3, N: 6, Mode: core.Diverse, D: 1, MaxCandidates: 2},
		{K: 3, N: 6, Mode: core.Diverse, D: 50},
	}
}

// randomLiveWorkload drives batches of random mutations against a live
// graph and calls check after every publication. Batches are mostly
// incremental (edges, new entities of existing types); every few batches
// one is structural (a new type and relationship type), so both refresh
// paths run.
func randomLiveWorkload(t *testing.T, seed int64, batches int, check func(*dynamic.Snapshot)) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	var dg dynamic.Graph
	nTypes := rng.Intn(4) + 3
	types := make([]graph.TypeID, nTypes)
	for i := range types {
		types[i] = dg.Type(fmt.Sprintf("T%d", i))
	}
	var rels []graph.RelTypeID
	for i := 0; i < rng.Intn(5)+3; i++ {
		r, err := dg.RelType(fmt.Sprintf("r%d", i), types[rng.Intn(len(types))], types[rng.Intn(len(types))])
		if err != nil {
			t.Fatal(err)
		}
		rels = append(rels, r)
	}
	nEnts := rng.Intn(30) + 20
	for i := 0; i < nEnts; i++ {
		dg.Entity(fmt.Sprintf("e%d", i), types[rng.Intn(len(types))])
	}
	for i := 0; i < nEnts*2; i++ {
		rel := rels[rng.Intn(len(rels))]
		if err := dg.AddEdge(graph.EntityID(rng.Intn(nEnts)), graph.EntityID(rng.Intn(nEnts)), rel); err != nil {
			t.Fatal(err)
		}
	}
	live, err := dynamic.NewLive(&dg, score.DefaultWalkOptions())
	if err != nil {
		t.Fatal(err)
	}
	check(live.Snapshot())
	for batch := 0; batch < batches; batch++ {
		snap, err := live.Apply(func(g *dynamic.Graph) error {
			if batch > 0 && batch%4 == 0 {
				// Structural batch: grow the schema itself.
				nt := g.Type(fmt.Sprintf("T%d-b%d", len(types), batch))
				types = append(types, nt)
				r, err := g.RelType(fmt.Sprintf("r-b%d", batch), types[rng.Intn(len(types))], nt)
				if err != nil {
					return err
				}
				rels = append(rels, r)
			}
			if rng.Intn(2) == 0 {
				g.Entity(fmt.Sprintf("e-b%d-%d", batch, rng.Intn(100)), types[rng.Intn(len(types))])
			}
			st := g.Stats()
			for i := 0; i < rng.Intn(8)+1; i++ {
				from := graph.EntityID(rng.Intn(st.Entities))
				to := graph.EntityID(rng.Intn(st.Entities))
				if err := g.AddEdge(from, to, rels[rng.Intn(len(rels))]); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		check(snap)
	}
}

// assertSameOutcome requires the maintained and cold answers to agree
// exactly: equal previews modulo work counters, or errors with the same
// identity and message.
func assertSameOutcome(t *testing.T, label string, pm core.Preview, errM error, pc core.Preview, errC error) {
	t.Helper()
	if (errM == nil) != (errC == nil) {
		t.Fatalf("%s: maintained err %v, cold err %v", label, errM, errC)
	}
	if errM != nil {
		if errM.Error() != errC.Error() {
			t.Fatalf("%s: error text diverges: maintained %q, cold %q", label, errM, errC)
		}
		return
	}
	if !reflect.DeepEqual(stripStats(pm), stripStats(pc)) {
		t.Fatalf("%s: previews diverge:\nmaintained %+v\ncold       %+v", label, stripStats(pm), stripStats(pc))
	}
}

// TestMaintainedMatchesColdAcrossEpochs is the differential property. A
// second Maintained receives only every third refresh, with the delta
// the snapshot reports since its last one (Snapshot.DirtySince), so
// multi-epoch catch-up (the service's lagging measure pairs) is covered
// too.
func TestMaintainedMatchesColdAcrossEpochs(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			for _, pair := range measurePairs() {
				opts := pair
				opts.Parallelism = diffWorkers
				m := core.NewMaintained(opts)
				lag := core.NewMaintained(opts)
				var pendingBase uint64
				queries := 0
				randomLiveWorkload(t, seed, 9, func(snap *dynamic.Snapshot) {
					m.Refresh(snap.Scores, snap.Epoch, snap.Dirty, snap.Structural)
					cold := core.New(snap.Scores, opts)
					for _, c := range incrementalConstraints() {
						pm, errM := m.DiscoverAt(snap.Epoch, c)
						pc, errC := cold.Discover(c)
						label := fmt.Sprintf("epoch %d constraint %+v", snap.Epoch, c)
						assertSameOutcome(t, label, pm, errM, pc, errC)
						queries++
					}
					// The lagging state catches up over the skipped epochs
					// with the snapshot's own delta, as the service does.
					if snap.Epoch-pendingBase >= 3 {
						dirty, structural := snap.DirtySince(pendingBase)
						lag.Refresh(snap.Scores, snap.Epoch, dirty, structural)
						for _, c := range incrementalConstraints() {
							pm, errM := lag.DiscoverAt(snap.Epoch, c)
							pc, errC := cold.Discover(c)
							assertSameOutcome(t, fmt.Sprintf("lag epoch %d constraint %+v", snap.Epoch, c), pm, errM, pc, errC)
						}
						pendingBase = snap.Epoch
					}
				})
				// The point of the machinery: certificates must actually
				// serve — every query triggering a full search would make
				// the maintained path pure overhead.
				if m.CertServes() == 0 {
					t.Fatalf("no certificate serves in %d queries (full searches: %d)", queries, m.FullSearches())
				}
				if m.FullSearches() >= int64(queries) {
					t.Fatalf("full searches (%d) not below query count (%d): incrementality never engaged", m.FullSearches(), queries)
				}
			}
		})
	}
}

// TestMaintainedStaleEpoch: a Maintained asked about an epoch it is not
// at must refuse with ErrStaleEpoch, never answer from the wrong state.
func TestMaintainedStaleEpoch(t *testing.T) {
	opts := core.Options{Key: score.KeyCoverage, NonKey: score.NonKeyCoverage}
	m := core.NewMaintained(opts)
	c := core.Constraint{K: 2, N: 4, Mode: core.Tight, D: 2}
	if _, err := m.DiscoverAt(0, c); !errors.Is(err, core.ErrStaleEpoch) {
		t.Fatalf("uninitialized DiscoverAt: got %v, want ErrStaleEpoch", err)
	}
	randomLiveWorkload(t, 3, 1, func(snap *dynamic.Snapshot) {
		m.Refresh(snap.Scores, snap.Epoch, snap.Dirty, snap.Structural)
	})
	if _, err := m.DiscoverAt(99, c); !errors.Is(err, core.ErrStaleEpoch) {
		t.Fatalf("wrong-epoch DiscoverAt: got %v, want ErrStaleEpoch", err)
	}
	if m.CertifiedAt(99, c) {
		t.Fatal("CertifiedAt claimed certification at an epoch the state is not at")
	}
	if _, _, err := m.AnytimeAt(99, c); !errors.Is(err, core.ErrStaleEpoch) {
		t.Fatalf("wrong-epoch AnytimeAt: got %v, want ErrStaleEpoch", err)
	}
}

// TestMaintainedConcurrent hammers one Maintained from many goroutines
// while refreshes land, for the race detector: every non-stale answer
// must equal the cold answer for its epoch.
func TestMaintainedConcurrent(t *testing.T) {
	opts := core.Options{Key: score.KeyCoverage, NonKey: score.NonKeyCoverage, Parallelism: 2}
	m := core.NewMaintained(opts)
	var (
		mu    sync.Mutex
		colds = map[uint64]*core.Discoverer{}
	)
	constraints := incrementalConstraints()
	randomLiveWorkload(t, 11, 6, func(snap *dynamic.Snapshot) {
		m.Refresh(snap.Scores, snap.Epoch, snap.Dirty, snap.Structural)
		mu.Lock()
		colds[snap.Epoch] = core.New(snap.Scores, opts)
		mu.Unlock()
		var wg sync.WaitGroup
		for w := 0; w < 4; w++ {
			w := w
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < len(constraints); i++ {
					c := constraints[(i+w)%len(constraints)]
					pm, errM := m.DiscoverAt(snap.Epoch, c)
					if errors.Is(errM, core.ErrStaleEpoch) {
						continue // raced a newer refresh; the service falls back cold
					}
					mu.Lock()
					cold := colds[snap.Epoch]
					mu.Unlock()
					pc, errC := cold.Discover(c)
					assertSameOutcome(t, fmt.Sprintf("worker %d epoch %d %+v", w, snap.Epoch, c), pm, errM, pc, errC)
				}
			}()
		}
		wg.Wait()
	})
}

// TestMaintainedAnytimeConverges: the anytime answer under an unlimited
// budget is the exact preview with converged=true; under a budget of one
// subset it still returns a valid (possibly partial) outcome, and the
// exact path is untouched.
func TestMaintainedAnytimeConverges(t *testing.T) {
	opts := core.Options{Key: score.KeyCoverage, NonKey: score.NonKeyCoverage}
	m := core.NewMaintained(opts)
	randomLiveWorkload(t, 5, 3, func(snap *dynamic.Snapshot) {
		m.Refresh(snap.Scores, snap.Epoch, snap.Dirty, snap.Structural)
		cold := core.New(snap.Scores, opts)
		for _, c := range incrementalConstraints() {
			if c.Mode == core.Concise || c.MaxCandidates != 0 {
				continue
			}
			exact, exactErr := cold.Discover(c)
			full, converged, err := m.AnytimeAt(snap.Epoch, c)
			if exactErr != nil {
				if err == nil || err.Error() != exactErr.Error() {
					t.Fatalf("epoch %d %+v: anytime err %v, exact err %v", snap.Epoch, c, err, exactErr)
				}
				continue
			}
			if err != nil || !converged {
				t.Fatalf("epoch %d %+v: unbounded anytime did not converge: converged=%t err=%v", snap.Epoch, c, converged, err)
			}
			if !reflect.DeepEqual(stripStats(full), stripStats(exact)) {
				t.Fatalf("epoch %d %+v: converged anytime preview differs from exact", snap.Epoch, c)
			}
			bounded := c
			bounded.MaxCandidates = 1
			p, conv, err := m.AnytimeAt(snap.Epoch, bounded)
			if err == nil {
				if p.Score <= 0 && len(p.Tables) == 0 {
					t.Fatalf("epoch %d %+v: budget-1 anytime returned an empty preview without error", snap.Epoch, c)
				}
				if conv && !reflect.DeepEqual(stripStats(p), stripStats(exact)) {
					t.Fatalf("epoch %d %+v: budget-1 anytime claimed convergence on a non-exact preview", snap.Epoch, c)
				}
			} else if !errors.Is(err, core.ErrSearchBudget) && !errors.Is(err, core.ErrNoPreview) {
				t.Fatalf("epoch %d %+v: budget-1 anytime failed unexpectedly: %v", snap.Epoch, c, err)
			}
		}
	})
}
