package dynamic

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"testing"

	"github.com/uta-db/previewtables/internal/fig1"
	"github.com/uta-db/previewtables/internal/freebase"
	"github.com/uta-db/previewtables/internal/graph"
	"github.com/uta-db/previewtables/internal/graph/graphtest"
	"github.com/uta-db/previewtables/internal/score"
	"github.com/uta-db/previewtables/internal/storage"
)

// ledger is an account of a write stream that shares nothing with Graph:
// every type, relationship type, entity and edge the stream declares or
// adds, a failed batch's included, with ids given in order of first
// declaration, as graph.Builder gives them. Each entity keeps the types
// declared for it; an edge's endpoint types are the Builder's to add.
type ledger struct {
	types    []string
	rels     []graph.RelType
	entities []graph.Entity
	entIDs   map[string]graph.EntityID
	edges    []graph.Edge
}

func (l *ledger) typ(name string) {
	if !slices.Contains(l.types, name) {
		l.types = append(l.types, name)
	}
}

func (l *ledger) rel(name string, from, to graph.TypeID) {
	if k := (graph.RelType{Name: name, From: from, To: to}); !slices.Contains(l.rels, k) {
		l.rels = append(l.rels, k)
	}
}

func (l *ledger) entity(name string, types ...graph.TypeID) {
	if l.entIDs == nil {
		l.entIDs = map[string]graph.EntityID{}
	}
	id, ok := l.entIDs[name]
	if !ok {
		id = graph.EntityID(len(l.entities))
		l.entIDs[name] = id
		l.entities = append(l.entities, graph.Entity{Name: name})
	}
	l.entities[id].Types = append(l.entities[id].Types, types...)
}

// record enters every declaration and edge of src, in id order.
func (l *ledger) record(src *graph.EntityGraph) {
	for t := 0; t < src.NumTypes(); t++ {
		l.typ(src.TypeName(graph.TypeID(t)))
	}
	for r := 0; r < src.NumRelTypes(); r++ {
		rt := src.RelType(graph.RelTypeID(r))
		l.rel(rt.Name, rt.From, rt.To)
	}
	for e := 0; e < src.NumEntities(); e++ {
		ent := src.Entity(graph.EntityID(e))
		l.entity(ent.Name, ent.Types...)
	}
	for i := 0; i < src.NumEdges(); i++ {
		l.edges = append(l.edges, src.Edge(graph.EdgeID(i)))
	}
}

// reference builds the ledger's graph with graph.Builder, its edges in
// canonical order (relationship type, source, target), the order of a
// live graph's edge list.
func (l *ledger) reference() (*graph.EntityGraph, error) {
	var b graph.Builder
	for _, name := range l.types {
		b.Type(name)
	}
	for _, r := range l.rels {
		b.RelType(r.Name, r.From, r.To)
	}
	for _, ent := range l.entities {
		b.Entity(ent.Name, ent.Types...)
	}
	edges := slices.Clone(l.edges)
	slices.SortStableFunc(edges, func(a, b graph.Edge) int {
		if a.Rel != b.Rel {
			return int(a.Rel - b.Rel)
		}
		if a.From != b.From {
			return int(a.From - b.From)
		}
		return int(a.To - b.To)
	})
	for _, ed := range edges {
		b.Edge(ed.From, ed.To, ed.Rel)
	}
	return b.Build()
}

// writer is what a write batch calls: a Graph, or one whose writes a
// ledger records too.
type writer interface {
	Type(name string) graph.TypeID
	RelType(name string, from, to graph.TypeID) (graph.RelTypeID, error)
	Entity(name string, types ...graph.TypeID) graph.EntityID
	AddEdge(from, to graph.EntityID, rel graph.RelTypeID) error
	Stats() graph.Stats
	Rel(id graph.RelTypeID) graph.RelType
}

// recorded passes every write to its Graph and records it in its ledger.
// The ids it hands out are the Graph's, and the ledger reads the ids it
// is handed as its own: where the two disagree, the reference differs.
type recorded struct {
	*Graph
	l *ledger
}

func (r recorded) Type(name string) graph.TypeID {
	r.l.typ(name)
	return r.Graph.Type(name)
}

func (r recorded) RelType(name string, from, to graph.TypeID) (graph.RelTypeID, error) {
	id, err := r.Graph.RelType(name, from, to)
	if err == nil {
		r.l.rel(name, from, to)
	}
	return id, err
}

func (r recorded) Entity(name string, types ...graph.TypeID) graph.EntityID {
	r.l.entity(name, types...)
	return r.Graph.Entity(name, types...)
}

func (r recorded) AddEdge(from, to graph.EntityID, rel graph.RelTypeID) error {
	err := r.Graph.AddEdge(from, to, rel)
	if err == nil {
		r.l.edges = append(r.l.edges, graph.Edge{From: from, To: to, Rel: rel})
	}
	return err
}

// writeBatch applies one seeded batch: sometimes structural (a new type
// and a relationship type into it, reusing a surface name), then a few
// edges between old and new entities, some of them parallel duplicates,
// and a new entity or two bearing an extra type.
func writeBatch(rng *rand.Rand, g writer) error {
	if rng.Intn(4) == 0 {
		t := g.Type(fmt.Sprintf("T%d", g.Stats().Types))
		from := graph.TypeID(rng.Intn(g.Stats().Types))
		name := g.Rel(graph.RelTypeID(rng.Intn(g.Stats().RelTypes))).Name
		if _, err := g.RelType(name, from, t); err != nil {
			return err
		}
	}
	entity := func(t graph.TypeID) graph.EntityID {
		if rng.Intn(3) > 0 {
			return graph.EntityID(rng.Intn(g.Stats().Entities))
		}
		types := []graph.TypeID{t}
		if rng.Intn(2) == 0 {
			types = append(types, graph.TypeID(rng.Intn(g.Stats().Types)))
		}
		return g.Entity(fmt.Sprintf("n%d", g.Stats().Entities), types...)
	}
	var last [3]int32
	for i := 1 + rng.Intn(8); i > 0; i-- {
		if i < 8 && rng.Intn(4) == 0 && last != [3]int32{} {
			if err := g.AddEdge(graph.EntityID(last[0]), graph.EntityID(last[1]), graph.RelTypeID(last[2])); err != nil {
				return err
			}
			continue
		}
		rel := graph.RelTypeID(rng.Intn(g.Stats().RelTypes))
		from, to := entity(g.Rel(rel).From), entity(g.Rel(rel).To)
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

// checkSnapshot requires snap's graph to equal ref through every accessor
// and in storage.Write bytes, and its scores to equal score.Compute of
// that graph bit for bit.
func checkSnapshot(t *testing.T, what string, snap *Snapshot, ref *graph.EntityGraph, err error) {
	t.Helper()
	want := snapshotBytes(t, ref, err)
	if err := graphtest.Equal(snap.Frozen, ref); err != nil {
		t.Fatalf("%s: the live graph differs from the Builder reference: %v", what, err)
	}
	if !bytes.Equal(snapshotBytes(t, snap.Frozen, nil), want) {
		t.Fatalf("%s: the live graph serializes differently from the Builder reference", what)
	}
	if err := ScoresEqual(snap.Scores, score.Compute(snap.Frozen, score.DefaultWalkOptions())); err != nil {
		t.Fatalf("%s: the live scores differ from score.Compute: %v", what, err)
	}
}

// TestFreezeMatchesBuilderReference: over seeded write streams with new
// entities, new types, structural batches, older entities gaining types
// and parallel duplicate edges (of an edge the batch added, and in every
// batch of one the graph may already hold), the graph a Live published at
// each epoch,
// which it derived from the previous one (Freeze), equals the Builder
// reference of the ledger that recorded the stream, through every
// accessor and byte for byte, and Freeze hands the same graph back while
// nothing is pending. The snapshot's scores equal score.Compute of its
// graph bit for bit. Odd seeds write through Apply, even seeds through
// ApplyShipped; seeds 3 and 4 start the Live at epoch 40 (NewLiveAt); and
// every seventh batch fails after mutating, so what it leaked must land in
// the next epoch.
func TestFreezeMatchesBuilderReference(t *testing.T) {
	errLeak := errors.New("batch fails after mutating")
	for seed := int64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var l ledger
		l.record(fig1.Graph())
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
				mutate := func(g *Graph) error {
					w := recorded{g, &l}
					if err := writeBatch(rng, w); err != nil {
						return err
					}
					// One more copy of an edge the ledger holds, most often
					// a triple the graph already had before this batch.
					ed := l.edges[rng.Intn(len(l.edges))]
					if err := w.AddEdge(ed.From, ed.To, ed.Rel); err != nil {
						return err
					}
					if step%7 == 0 {
						return errLeak
					}
					return nil
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
			snap := live.Snapshot()
			ref, err := l.reference()
			checkSnapshot(t, fmt.Sprintf("seed %d step %d", seed, step), snap, ref, err)
			if frozen, err := g.Freeze(); err != nil || frozen != snap.Frozen {
				t.Fatalf("seed %d step %d: Freeze with nothing pending = %p, %v; want the published graph %p",
					seed, step, frozen, err, snap.Frozen)
			}
		}
	}
}

// TestOpenLiveMatchesBuilderReference: opening a live graph
// (FromEntityGraph, then NewLive) publishes, on Fig. 1 and every
// default-scale domain, the Builder reference of its source in canonical
// edge order, with score.Compute's scores bit for bit. Reopening from a
// later snapshot's graph at its epoch, as a checkpoint restart does, gives
// back the same graph, byte for byte, and the same scores.
func TestOpenLiveMatchesBuilderReference(t *testing.T) {
	srcs := []graphtest.Named{{Name: "fig1", Graph: fig1.Graph()}}
	for _, d := range freebase.Domains() {
		g, err := freebase.Generate(d, freebase.DefaultGenOptions())
		if err != nil {
			t.Fatal(err)
		}
		srcs = append(srcs, graphtest.Named{Name: d, Graph: g})
	}
	for _, src := range srcs {
		t.Run(src.Name, func(t *testing.T) {
			var l ledger
			l.record(src.Graph)
			g, err := FromEntityGraph(src.Graph)
			if err != nil {
				t.Fatal(err)
			}
			live, err := NewLive(g, score.DefaultWalkOptions())
			if err != nil {
				t.Fatal(err)
			}
			ref, err := l.reference()
			checkSnapshot(t, "epoch 0", live.Snapshot(), ref, err)

			rng := rand.New(rand.NewSource(1))
			for i := 0; i < 5; i++ {
				if _, err := live.Apply(func(g *Graph) error { return writeBatch(rng, g) }); err != nil {
					t.Fatal(err)
				}
			}
			snap := live.Snapshot()
			g2, err := FromEntityGraph(snap.Frozen)
			if err != nil {
				t.Fatal(err)
			}
			reopened, err := NewLiveAt(g2, score.DefaultWalkOptions(), snap.Epoch)
			if err != nil {
				t.Fatal(err)
			}
			checkSnapshot(t, "reopened", reopened.Snapshot(), snap.Frozen, nil)
			if err := ScoresEqual(reopened.Snapshot().Scores, snap.Scores); err != nil {
				t.Fatalf("reopened: scores differ from the snapshot's: %v", err)
			}
		})
	}
}

// FuzzDerivedGraphMatchesFreeze decodes a base multigraph and a write
// stream from its input and checks, at the first publication and at every
// epoch after, that the graph the Live published equals the Builder
// reference of the ledger that recorded the base and the stream, through
// every accessor and in storage.Write bytes, and that its scores equal
// score.Compute of that graph bit for bit. The first byte sizes the base
// (graphtest.Multigraph of up to 63 bytes: parallel duplicate edges, self
// loops, entities of two types); the rest is batches. A batch's first
// byte gives its operation count (1–8), whether it fails after mutating
// (its leak lands in the next epoch) and whether it is applied as a
// shipped batch; each operation's first byte picks one of: a new type
// with a relationship type into it, a relationship type between existing
// types, a new entity of one or two types, an edge between existing
// entities (which gives them the relationship's endpoint types), a
// parallel copy of the stream's last edge (an earlier batch's, too), or a
// type for an existing entity.
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
		var l ledger
		l.record(base)
		g, err := FromEntityGraph(base)
		if err != nil {
			t.Fatal(err)
		}
		live, err := NewLive(g, score.DefaultWalkOptions())
		if err != nil {
			t.Fatal(err)
		}
		ref, err := l.reference()
		checkSnapshot(t, "epoch 0", live.Snapshot(), ref, err)
		errLeak := errors.New("batch fails after mutating")
		var last *graph.Edge
		for batch := 0; batch < 64 && len(data) > 0; batch++ {
			h := next()
			ops, fail, shipped := 1+h%8, h&0x30 == 0x30, h&0x80 != 0
			mutate := func(dg *Graph) error {
				g := recorded{dg, &l}
				typ := func() graph.TypeID { return graph.TypeID(next() % g.Stats().Types) }
				ent := func() graph.EntityID { return graph.EntityID(next() % g.Stats().Entities) }
				for i := 0; i < ops; i++ {
					switch next() % 6 {
					case 0:
						from := typ()
						to := g.Type(fmt.Sprintf("F%d", g.Stats().Types))
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
							types = append(types, graph.TypeID(c>>1%g.Stats().Types))
						}
						g.Entity(fmt.Sprintf("x%d", g.Stats().Entities), types...)
					case 3:
						ed := graph.Edge{From: ent(), Rel: graph.RelTypeID(next() % g.Stats().RelTypes), To: ent()}
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
						g.Entity(l.entities[e].Name, typ())
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
			ref, err := l.reference()
			checkSnapshot(t, fmt.Sprintf("batch %d", batch), live.Snapshot(), ref, err)
		}
	})
}

// TestDerivedSnapshotsStayPut: readers walk the graphs of the last few
// snapshots they saw, again at every epoch, while the writer publishes
// 200 epochs, each graph derived from the last; every walk of a snapshot
// reads what its first walk read.
// Under -race it also shows that no derivation writes memory an older
// snapshot's readers read: the graphs share their entity records, names,
// per-type lists and name orders, append to them, count each batch's
// edges in a copy of the relationship table, and build their edge lists
// lazily, from whichever reader asks first.
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
// names, types, name lookups and name ranks, per-type lists, relationship
// types (name, endpoint types and instance count), the neighbor runs of
// every entity's incident relationship types, and the edge list. The
// digest is never 0.
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
			for _, r := range g.IncidentRelTypes(t) {
				for _, v := range g.Neighbors(id, r, true) {
					word(int(v))
				}
				for _, v := range g.Neighbors(id, r, false) {
					word(int(v))
				}
			}
		}
	}
	for t := 0; t < g.NumTypes(); t++ {
		for _, e := range g.EntitiesOfType(graph.TypeID(t)) {
			word(int(e))
		}
	}
	for r := 0; r < g.NumRelTypes(); r++ {
		rt := g.RelType(graph.RelTypeID(r))
		h.Write([]byte(rt.Name))
		word(int(rt.From))
		word(int(rt.To))
		word(rt.EdgeCount)
	}
	for i := 0; i < g.NumEdges(); i++ {
		ed := g.Edge(graph.EdgeID(i))
		word(int(ed.From))
		word(int(ed.Rel))
		word(int(ed.To))
	}
	return h.Sum64() | 1
}
