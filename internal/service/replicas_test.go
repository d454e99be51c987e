package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"github.com/uta-db/previewtables/internal/freebase"
	"github.com/uta-db/previewtables/internal/graph"
	"github.com/uta-db/previewtables/internal/score"
)

// booksBatches is a seeded write stream over the default-scale books
// graph: each batch adds edges of the graph's own relationship types
// between existing entities, some of them new entities and some parallel
// copies of an edge already written.
func booksBatches(base *graph.EntityGraph, n int) []string {
	rng := rand.New(rand.NewSource(26))
	var written []edgeDoc
	var batches []string
	for b := 0; b < n; b++ {
		var edges []edgeDoc
		for i := 0; i < 12; i++ {
			if len(written) > 0 && rng.Intn(5) == 0 {
				edges = append(edges, written[rng.Intn(len(written))])
				continue
			}
			rt := base.RelType(graph.RelTypeID(rng.Intn(base.NumRelTypes())))
			from, to := base.EntitiesOfType(rt.From), base.EntitiesOfType(rt.To)
			e := edgeDoc{From: base.EntityName(from[rng.Intn(len(from))]), Rel: rt.Name,
				FromType: base.TypeName(rt.From), ToType: base.TypeName(rt.To), To: base.EntityName(to[rng.Intn(len(to))])}
			if rng.Intn(4) == 0 {
				e.To = fmt.Sprintf("%s (b%d)", e.To, b)
			}
			edges = append(edges, e)
			written = append(written, e)
		}
		body, err := json.Marshal(edgesRequest{Edges: edges})
		if err != nil {
			panic(err)
		}
		batches = append(batches, string(body))
	}
	return batches
}

// booksReadURLs reads the books graph under all four measure pairs.
var booksReadURLs = func() []string {
	urls := []string{"/v1/graphs", "/v1/graphs/books/stats"}
	for _, m := range goldenMeasures {
		urls = append(urls,
			"/v1/graphs/books/preview?k=2&n=4&tuples=3&"+m,
			"/v1/graphs/books/preview?k=2&n=5&mode=tight&d=2&"+m,
			"/v1/graphs/books/render?k=2&n=4&tuples=2&format=markdown&"+m)
	}
	return urls
}()

// TestReplicasServeOneBodyPerState: four replicas of the default-scale
// books graph, a multigraph, reach the same states by four paths — a
// durable leader that took the writes, a follower booted from it before
// them, a follower that re-bootstrapped from the leader's snapshot after
// a checkpoint truncated the WAL past it, and the leader restarted from
// that checkpoint plus its WAL tail — and at every epoch they share they
// serve identical bodies and ETags under every measure pair.
func TestReplicasServeOneBodyPerState(t *testing.T) {
	base, err := freebase.Generate("books", freebase.DefaultGenOptions())
	if err != nil {
		t.Fatal(err)
	}
	cfg := NodeConfig{
		Graphs:          []GraphSource{{Name: "books", Load: func() (*graph.EntityGraph, error) { return base, nil }}},
		Mutable:         true,
		FollowerOptions: nodeStorage(t.TempDir()),
	}
	leader := startNode(t, cfg)
	var current atomic.Pointer[Server]
	current.Store(leader.Server())
	// The followers tail one address, which the restarted leader takes
	// over.
	front := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		current.Load().ServeHTTP(w, r)
	}))
	t.Cleanup(front.Close)

	follow := func(gated *atomic.Bool) (*Follower, *httptest.Server) {
		opts := FollowerOptions{Leader: front.URL, Walk: score.DefaultWalkOptions(), Wait: 150 * time.Millisecond, Backoff: 5 * time.Millisecond}
		if gated != nil {
			opts.Client = &http.Client{Transport: roundTripFunc(func(r *http.Request) (*http.Response, error) {
				if gated.Load() && strings.HasSuffix(r.URL.Path, "/wal") {
					return nil, errors.New("tailing held back")
				}
				return http.DefaultTransport.RoundTrip(r)
			})}
		}
		reg := NewRegistry()
		f, err := StartFollower(reg, "books", opts)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(f.Stop)
		ts := httptest.NewServer(New(reg))
		t.Cleanup(ts.Close)
		return f, ts
	}
	booted, bootedTS := follow(nil)
	var gated atomic.Bool
	gated.Store(true)
	rebooted, rebootedTS := follow(&gated)

	type replica struct {
		name string
		url  string
		f    *Follower // nil for a leader
	}
	check := func(epoch uint64, rs ...replica) {
		t.Helper()
		var want map[string]string
		for _, r := range rs {
			if r.f != nil {
				if err := r.f.WaitCaughtUp(epoch, 30*time.Second); err != nil {
					t.Fatal(err)
				}
			}
			got := readSurfaces(t, r.url, booksReadURLs)
			if want == nil {
				want = got
				continue
			}
			assertIdenticalReads(t, fmt.Sprintf("%s and %s at epoch %d", rs[0].name, r.name, epoch), want, got)
		}
	}
	leaderTS := httptest.NewServer(leader.Server())
	t.Cleanup(leaderTS.Close)
	l := replica{"the leader", leaderTS.URL, nil}
	b := replica{"the booted follower", bootedTS.URL, booted}
	r := replica{"the re-bootstrapped follower", rebootedTS.URL, rebooted}

	write := func(body string) {
		t.Helper()
		if status, raw := post(t, front.URL+"/v1/graphs/books/edges", body); status != http.StatusOK {
			t.Fatalf("POST edges: status %d body %s", status, raw)
		}
	}
	batches := booksBatches(base, 6)
	check(0, l, b)
	for i, body := range batches[:3] {
		write(body)
		check(uint64(i+1), l, b)
	}
	// The checkpoint truncates the WAL past the held-back follower, which
	// then re-bootstraps from the leader's snapshot at epoch 3.
	leader.checkpoint()
	gated.Store(false)
	check(3, l, b, r)
	if st := rebooted.Status(); st.Bootstraps != 2 {
		t.Fatalf("held-back follower bootstrapped %d times, want 2 (boot and re-bootstrap)", st.Bootstraps)
	}
	for i, body := range batches[3:5] {
		write(body)
		check(uint64(i+4), l, b, r)
	}

	// Restart the leader from its epoch-3 checkpoint and WAL tail.
	want := readSurfaces(t, leaderTS.URL, booksReadURLs)
	leaderTS.Close()
	leader.Close()
	restarted := startNode(t, cfg)
	current.Store(restarted.Server())
	restartedTS := httptest.NewServer(restarted.Server())
	t.Cleanup(restartedTS.Close)
	if got := nodeEpoch(t, restarted, "books"); got != 5 {
		t.Fatalf("restarted leader at epoch %d, want 5", got)
	}
	assertIdenticalReads(t, "the leader before and after its restart", want, readSurfaces(t, restartedTS.URL, booksReadURLs))
	l2 := replica{"the restarted leader", restartedTS.URL, nil}
	check(5, l2, b, r)
	write(batches[5])
	check(6, l2, b, r)
}
