package dynamic

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"github.com/uta-db/previewtables/internal/fig1"
	"github.com/uta-db/previewtables/internal/graph"
	"github.com/uta-db/previewtables/internal/graph/graphtest"
	"github.com/uta-db/previewtables/internal/score"
)

// TestOpenedChainsStayApart: live graphs opened on one source share its
// arrays and never write into each other's or the source's. The source is
// a live snapshot's graph after batches that declared films, so its
// entity table and its film list have room to append into. Two live
// graphs are opened on it, and the three, the source's own live graph
// included, write their own batches at once: a first that declares a new
// film, in one of them after a new actor so that its film's id differs
// from the others', and then seeded ones. At every epoch each graph
// equals the Builder reference of its own ledger, through every accessor
// and in storage.Write bytes, and the source reads as it did. Under -race
// it also shows that no two chains write one word.
func TestOpenedChainsStayApart(t *testing.T) {
	var l0 ledger
	l0.record(fig1.Graph())
	g0, err := FromEntityGraph(fig1.Graph())
	if err != nil {
		t.Fatal(err)
	}
	film, _ := g0.TypeByName(fig1.Film)
	actor, _ := g0.TypeByName(fig1.FilmActor)
	live0, err := NewLive(g0, score.DefaultWalkOptions())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, err := live0.Apply(func(g *Graph) error {
			recorded{g, &l0}.Entity(fmt.Sprintf("source film %d", i), film)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	src := live0.Snapshot()
	srcBytes, srcSum := snapshotBytes(t, src.Frozen, nil), walkGraph(src.Frozen)

	type chain struct {
		name  string
		live  *Live
		l     *ledger
		actor bool // declare an actor before the batch's film
		snaps []*Snapshot
		refs  []*graph.EntityGraph
		err   error
	}
	chains := []*chain{{name: "source's own", live: live0, l: &l0}}
	for _, withActor := range []bool{false, true} {
		var l ledger
		l.record(src.Frozen)
		g, err := FromEntityGraph(src.Frozen)
		if err != nil {
			t.Fatal(err)
		}
		live, err := NewLiveAt(g, score.DefaultWalkOptions(), src.Epoch)
		if err != nil {
			t.Fatal(err)
		}
		chains = append(chains, &chain{name: fmt.Sprintf("opened %d", len(chains)), live: live, l: &l, actor: withActor})
	}
	var wg sync.WaitGroup
	for i, c := range chains {
		wg.Add(1)
		go func(seed int64, c *chain) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for step := 0; step < 4; step++ {
				snap, err := c.live.Apply(func(g *Graph) error {
					w := recorded{g, c.l}
					if step > 0 {
						return writeBatch(rng, w)
					}
					if c.actor {
						w.Entity(c.name+" actor", actor)
					}
					w.Entity(c.name+" film", film)
					return nil
				})
				var ref *graph.EntityGraph
				if err == nil {
					ref, err = c.l.reference()
				}
				if err != nil {
					c.err = err
					return
				}
				c.snaps, c.refs = append(c.snaps, snap), append(c.refs, ref)
			}
		}(int64(i+1), c)
	}
	wg.Wait()
	for _, c := range chains {
		if c.err != nil {
			t.Fatalf("%s: %v", c.name, c.err)
		}
		for i, snap := range c.snaps {
			checkSnapshot(t, fmt.Sprintf("%s, epoch %d", c.name, snap.Epoch), snap, c.refs[i], nil)
		}
	}
	if !bytes.Equal(snapshotBytes(t, src.Frozen, nil), srcBytes) || walkGraph(src.Frozen) != srcSum {
		t.Fatal("the source graph changed under the graphs opened on it")
	}
}

// TestOpenIgnoresEdgeOrder: a live graph opened on a source whose edges
// are in no canonical order publishes the same first snapshot as one
// opened on a canonical source. Each corpus graph is assembled again with
// its edge list reversed, and shuffled by a seeded source, parallel
// copies included; opening it, on its own and with a tail of seeded
// writes replayed before NewLiveAt as a WAL tail is, publishes the
// Builder reference of its ledger, through every accessor and in
// storage.Write bytes, with score.Compute's scores bit for bit. The
// source's edge list stays as it was.
func TestOpenIgnoresEdgeOrder(t *testing.T) {
	gs, err := graphtest.Corpus()
	if err != nil {
		t.Fatal(err)
	}
	for i, n := range gs {
		rng := rand.New(rand.NewSource(int64(i) + 1))
		edges := make([]graph.Edge, n.Graph.NumEdges())
		for id := range edges {
			edges[id] = n.Graph.Edge(graph.EdgeID(id))
		}
		reversed := slices.Clone(edges)
		slices.Reverse(reversed)
		shuffled := slices.Clone(edges)
		rng.Shuffle(len(shuffled), func(a, b int) { shuffled[a], shuffled[b] = shuffled[b], shuffled[a] })
		for _, order := range []struct {
			name  string
			edges []graph.Edge
		}{{"reversed", reversed}, {"shuffled", shuffled}} {
			for _, tail := range []int{0, 3} {
				what := fmt.Sprintf("%s, edges %s, %d batches replayed", n.Name, order.name, tail)
				src, err := graphtest.Reassemble(n.Graph, order.edges)
				if err != nil {
					t.Fatal(err)
				}
				var l ledger
				l.record(src)
				g, err := FromEntityGraph(src)
				if err != nil {
					t.Fatal(err)
				}
				for b := 0; b < tail; b++ {
					if err := writeBatch(rng, recorded{g, &l}); err != nil {
						t.Fatalf("%s: %v", what, err)
					}
				}
				live, err := NewLiveAt(g, score.DefaultWalkOptions(), uint64(tail))
				if err != nil {
					t.Fatal(err)
				}
				ref, err := l.reference()
				checkSnapshot(t, what, live.Snapshot(), ref, err)
				for id, ed := range order.edges {
					if got := src.Edge(graph.EdgeID(id)); got != ed {
						t.Fatalf("%s: the source's edge %d is %+v, was %+v", what, id, got, ed)
					}
				}
			}
		}
	}
}
