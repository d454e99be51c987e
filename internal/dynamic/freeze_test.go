package dynamic

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"testing"

	"github.com/uta-db/previewtables/internal/fig1"
	"github.com/uta-db/previewtables/internal/graph"
	"github.com/uta-db/previewtables/internal/graph/graphtest"
	"github.com/uta-db/previewtables/internal/score"
	"github.com/uta-db/previewtables/internal/storage"
)

// referenceFreeze is Freeze as it was written before graph.Assemble: it
// replays the state through graph.Builder, resolving both endpoints of
// every edge by name, and adds each triple's parallel copies after it.
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
				for c := g.copies[ri][pairKey(e, v)]; c >= 0; c-- {
					b.Edge(b.Entity(g.entNames[e]), b.Entity(g.entNames[v]), relIDs[ri])
				}
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
// entities, new types, structural batches, older entities gaining types
// and parallel duplicate edges, three graphs agree at every epoch: Freeze
// serializes to exactly the bytes of the Builder-based reference, and the
// snapshot a Live published, which it derived from the previous one
// (graph.Derive), equals Freeze through every accessor and byte for byte.
// The snapshot's scores equal score.Compute of its graph bit for bit.
// Odd seeds write through Apply, even seeds through ApplyShipped; seeds 3
// and 4 start the Live at epoch 40 (NewLiveAt); and every seventh batch
// fails after mutating, so what it leaked must land in the next epoch.
func TestFreezeMatchesBuilderReference(t *testing.T) {
	errLeak := errors.New("batch fails after mutating")
	for seed := int64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g, err := FromEntityGraph(fig1.Graph())
		if err != nil {
			t.Fatal(err)
		}
		var start uint64
		if seed == 3 || seed == 4 {
			start = 40
		}
		live, err := NewLiveAt(g, score.DefaultWalkOptions(), start)
		if err != nil {
			t.Fatal(err)
		}
		for step := 0; step <= 40; step++ {
			if step > 0 {
				mutate := func(g *Graph) error { return writeBatch(rng, g) }
				if step%7 == 0 {
					mutate = func(g *Graph) error {
						if err := writeBatch(rng, g); err != nil {
							return err
						}
						return errLeak
					}
				}
				if seed%2 == 1 {
					_, err = live.Apply(mutate)
				} else {
					_, err = live.ApplyShipped(live.Snapshot().Epoch+1, 0, nil, mutate)
				}
				if step%7 == 0 && errors.Is(err, errLeak) {
					continue
				}
				if err != nil {
					t.Fatalf("seed %d step %d: %v", seed, step, err)
				}
			}
			frozen, err := g.Freeze()
			want := snapshotBytes(t, frozen, err)
			ref, err := referenceFreeze(g)
			if !bytes.Equal(want, snapshotBytes(t, ref, err)) {
				t.Fatalf("seed %d step %d: Freeze differs from the Builder reference (%v vs %v)",
					seed, step, frozen.Stats(), ref.Stats())
			}
			snap := live.Snapshot()
			derived := snap.Frozen
			if err := graphtest.Equal(derived, frozen); err != nil {
				t.Fatalf("seed %d step %d: the derived graph differs from Freeze: %v", seed, step, err)
			}
			if !bytes.Equal(snapshotBytes(t, derived, nil), want) {
				t.Fatalf("seed %d step %d: the derived graph serializes differently from Freeze", seed, step)
			}
			if err := ScoresEqual(snap.Scores, score.Compute(derived, score.DefaultWalkOptions())); err != nil {
				t.Fatalf("seed %d step %d: the live scores differ from score.Compute: %v", seed, step, err)
			}
		}
	}
}

// FuzzDerivedGraphMatchesFreeze decodes a base multigraph and a write
// stream from its input and checks, at every epoch a Live publishes, that
// the graph it derived equals Freeze of the same state, through every
// accessor and in storage.Write bytes, and that its scores equal
// score.Compute of that graph bit for bit. The first byte sizes the base
// (graphtest.Multigraph of up to 63 bytes: parallel duplicate edges, self
// loops, entities of two types); the rest is batches. A batch's first
// byte gives its operation count (1–8), whether it fails after mutating
// (its leak lands in the next epoch) and whether it is applied as a
// shipped batch; each operation's first byte picks one of: a new type
// with a relationship type into it, a relationship type between existing
// types, a new entity of one or two types, an edge between existing
// entities (which gives them the relationship's endpoint types), a
// parallel copy of the batch's last edge, or a type for an existing
// entity.
func FuzzDerivedGraphMatchesFreeze(f *testing.F) {
	for seed := int64(1); seed <= 4; seed++ {
		data := make([]byte, 64+int(seed)*64)
		rand.New(rand.NewSource(seed)).Read(data)
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() int {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return int(b)
		}
		n := min(next()%64, len(data))
		base, err := graphtest.Multigraph(data[:n])
		if err != nil {
			t.Fatal(err)
		}
		data = data[n:]
		g, err := FromEntityGraph(base)
		if err != nil {
			t.Fatal(err)
		}
		live, err := NewLive(g, score.DefaultWalkOptions())
		if err != nil {
			t.Fatal(err)
		}
		errLeak := errors.New("batch fails after mutating")
		for batch := 0; batch < 64 && len(data) > 0; batch++ {
			h := next()
			ops, fail, shipped := 1+h%8, h&0x30 == 0x30, h&0x80 != 0
			mutate := func(g *Graph) error {
				typ := func() graph.TypeID { return graph.TypeID(next() % len(g.typeNames)) }
				ent := func() graph.EntityID { return graph.EntityID(next() % len(g.entNames)) }
				var last *graph.Edge
				for i := 0; i < ops; i++ {
					switch next() % 6 {
					case 0:
						from := typ()
						to := g.Type(fmt.Sprintf("F%d", len(g.typeNames)))
						if _, err := g.RelType(fmt.Sprintf("r%d", next()%4), from, to); err != nil {
							return err
						}
					case 1:
						if _, err := g.RelType(fmt.Sprintf("r%d", next()%4), typ(), typ()); err != nil {
							return err
						}
					case 2:
						types := []graph.TypeID{typ()}
						if c := next(); c&1 != 0 {
							types = append(types, graph.TypeID(c>>1%len(g.typeNames)))
						}
						g.Entity(fmt.Sprintf("x%d", len(g.entNames)), types...)
					case 3:
						ed := graph.Edge{From: ent(), Rel: graph.RelTypeID(next() % len(g.rels)), To: ent()}
						if err := g.AddEdge(ed.From, ed.To, ed.Rel); err != nil {
							return err
						}
						last = &ed
					case 4:
						if last != nil {
							if err := g.AddEdge(last.From, last.To, last.Rel); err != nil {
								return err
							}
						}
					case 5:
						e := ent()
						g.Entity(g.entNames[e], typ())
					}
				}
				if fail {
					return errLeak
				}
				return nil
			}
			if shipped {
				_, err = live.ApplyShipped(live.Snapshot().Epoch+1, 0, nil, mutate)
			} else {
				_, err = live.Apply(mutate)
			}
			if fail && errors.Is(err, errLeak) {
				continue
			}
			if err != nil {
				t.Fatalf("batch %d: %v", batch, err)
			}
			frozen, err := g.Freeze()
			want := snapshotBytes(t, frozen, err)
			snap := live.Snapshot()
			derived := snap.Frozen
			if err := graphtest.Equal(derived, frozen); err != nil {
				t.Fatalf("batch %d: the derived graph differs from Freeze: %v", batch, err)
			}
			if !bytes.Equal(snapshotBytes(t, derived, nil), want) {
				t.Fatalf("batch %d: the derived graph serializes differently from Freeze", batch)
			}
			if err := ScoresEqual(snap.Scores, score.Compute(derived, score.DefaultWalkOptions())); err != nil {
				t.Fatalf("batch %d: the live scores differ from score.Compute: %v", batch, err)
			}
		}
	})
}

// TestDerivedSnapshotsStayPut: readers walk the graphs of the last few
// snapshots they saw, again at every epoch, while the writer publishes
// 200 epochs, each graph derived from the last; every walk of a snapshot
// reads what its first walk read.
// Under -race it also shows that no derivation writes memory an older
// snapshot's readers read: the graphs share their entity records, names
// and per-type lists, append to them, and build their edge lists and name
// indexes lazily, from whichever reader asks first.
func TestDerivedSnapshotsStayPut(t *testing.T) {
	g, err := FromEntityGraph(fig1.Graph())
	if err != nil {
		t.Fatal(err)
	}
	// The walk is not under test, and solving it on ~50 types to 1e-12
	// would be nearly all the writer's time: a loose solve keeps 200
	// epochs short under -race.
	walk := score.DefaultWalkOptions()
	walk.Tolerance, walk.MaxIter = 1e-3, 20
	live, err := NewLive(g, walk)
	if err != nil {
		t.Fatal(err)
	}
	const readers, held = 2, 4
	done := make(chan struct{})
	errs := make(chan error, readers)
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sums := map[*Snapshot]uint64{}
			var order []*Snapshot
			for {
				stop := false
				select {
				case <-done:
					stop = true
				default:
				}
				snap := live.Snapshot()
				if sums[snap] != 0 && !stop {
					runtime.Gosched() // nothing new to walk yet
					continue
				}
				if sums[snap] == 0 {
					sums[snap] = walkGraph(snap.Frozen)
					order = append(order, snap)
					if len(order) > held {
						delete(sums, order[0])
						order = order[1:]
					}
				}
				for _, s := range order {
					if got := walkGraph(s.Frozen); got != sums[s] {
						errs <- fmt.Errorf("epoch %d's graph changed under its reader", s.Epoch)
						return
					}
				}
				if stop {
					return
				}
			}
		}()
	}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 200; i++ {
		if _, err := live.Apply(func(g *Graph) error { return writeBatch(rng, g) }); err != nil {
			t.Error(err)
			break
		}
	}
	close(done)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// walkGraph reads everything a reader of g can and digests it: entity
// names, types, name lookups and name ranks, per-type lists, the neighbor
// runs of every entity's incident relationship types, and the edge list.
// The digest is never 0.
func walkGraph(g *graph.EntityGraph) uint64 {
	h := fnv.New64a()
	word := func(v int) { binary.Write(h, binary.LittleEndian, int64(v)) }
	order := g.NameOrder()
	for e := 0; e < g.NumEntities(); e++ {
		id := graph.EntityID(e)
		ent := g.Entity(id)
		h.Write([]byte(ent.Name))
		byName, _ := g.EntityByName(ent.Name)
		word(int(byName))
		word(int(order.Rank(id)))
		for _, t := range ent.Types {
			word(int(t))
			for _, rels := range [][]graph.RelTypeID{g.SchemaOut(t), g.SchemaIn(t)} {
				for _, r := range rels {
					for _, v := range g.Neighbors(id, r, true) {
						word(int(v))
					}
					for _, v := range g.Neighbors(id, r, false) {
						word(int(v))
					}
				}
			}
		}
	}
	for t := 0; t < g.NumTypes(); t++ {
		for _, e := range g.EntitiesOfType(graph.TypeID(t)) {
			word(int(e))
		}
	}
	for i := 0; i < g.NumEdges(); i++ {
		ed := g.Edge(graph.EdgeID(i))
		word(int(ed.From))
		word(int(ed.Rel))
		word(int(ed.To))
	}
	return h.Sum64() | 1
}
