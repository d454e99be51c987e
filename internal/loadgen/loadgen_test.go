package loadgen

import (
	"fmt"
	"net/http/httptest"
	"testing"
	"time"

	"github.com/uta-db/previewtables/internal/dynamic"
	"github.com/uta-db/previewtables/internal/fig1"
	"github.com/uta-db/previewtables/internal/score"
	"github.com/uta-db/previewtables/internal/service"
)

// benchServer builds a mutable in-memory fig1 service, the same
// configuration cmd/loadgen defaults to.
func benchServer(t testing.TB) *service.Server {
	t.Helper()
	dg, err := dynamic.FromEntityGraph(fig1.Graph())
	if err != nil {
		t.Fatal(err)
	}
	live, err := dynamic.NewLive(dg, score.DefaultWalkOptions())
	if err != nil {
		t.Fatal(err)
	}
	reg := service.NewRegistry()
	if err := reg.AddLive("fig1", live); err != nil {
		t.Fatal(err)
	}
	return service.New(reg)
}

func edgeBody(i int) string {
	return fmt.Sprintf(`{"edges":[{"from":"Load Actor %d","rel":"Actor","from_type":%q,"to_type":%q,"to":"Gattaca"}]}`,
		i, fig1.FilmActor, fig1.Film)
}

var readPaths = []string{
	"/v1/graphs",
	"/v1/graphs/fig1/stats",
	"/v1/graphs/fig1/preview?k=2&n=3",
	"/v1/graphs/fig1/preview?k=2&n=3&tuples=3",
	"/v1/graphs/fig1/render?k=2&n=3&format=markdown",
}

// TestRunMixedWorkload: a short mixed read/write run completes with no
// request errors, counts add up, the cache is exercised, and latency
// percentiles are ordered.
func TestRunMixedWorkload(t *testing.T) {
	srv := benchServer(t)
	res, err := Run(srv, Config{
		Workers:     4,
		Duration:    300 * time.Millisecond,
		ReadPaths:   readPaths,
		WriteRoutes: []string{"/v1/graphs/fig1/edges"},
		WriteBody:   edgeBody,
		WriteEvery:  8,
		Seed:        1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Requests == 0 || res.Requests != res.Reads+res.Writes {
		t.Fatalf("requests %d != reads %d + writes %d", res.Requests, res.Reads, res.Writes)
	}
	if res.Writes == 0 {
		t.Fatal("write arm produced no writes")
	}
	if res.Errors != 0 {
		t.Fatalf("%d request errors", res.Errors)
	}
	if res.CacheHits == 0 || res.CacheMisses == 0 {
		t.Fatalf("mixed workload should both hit and miss the cache: hits %d misses %d", res.CacheHits, res.CacheMisses)
	}
	if !(res.P50MS <= res.P90MS && res.P90MS <= res.P99MS && res.P99MS <= res.MaxMS) {
		t.Fatalf("percentiles out of order: p50 %v p90 %v p99 %v max %v", res.P50MS, res.P90MS, res.P99MS, res.MaxMS)
	}
	if res.RPS <= 0 || res.AllocsPerOp <= 0 {
		t.Fatalf("rps %v allocs/op %v", res.RPS, res.AllocsPerOp)
	}
}

// TestRunConditional: with If-None-Match replay on a read-only
// workload, steady state within one epoch collapses to 304s.
func TestRunConditional(t *testing.T) {
	srv := benchServer(t)
	res, err := Run(srv, Config{
		Workers:     2,
		Duration:    200 * time.Millisecond,
		ReadPaths:   readPaths,
		Conditional: true,
		Seed:        2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.NotModified == 0 {
		t.Fatal("conditional run produced no 304s")
	}
	// Every request beyond each worker's first sight of a path should
	// revalidate: the 200s are bounded by workers × paths.
	if full := res.Reads - res.NotModified; full > res.Workers*len(readPaths) {
		t.Fatalf("%d full responses, want at most workers×paths = %d", full, res.Workers*len(readPaths))
	}
}

// TestRunRemoteMultiGraph: the Remote adapter drives a real listener
// over sockets, with the write arm round-robined across two graphs'
// write routes — the shape `loadgen -target` uses against a fleet.
func TestRunRemoteMultiGraph(t *testing.T) {
	reg := service.NewRegistry()
	for _, name := range []string{"left", "right"} {
		dg, err := dynamic.FromEntityGraph(fig1.Graph())
		if err != nil {
			t.Fatal(err)
		}
		live, err := dynamic.NewLive(dg, score.DefaultWalkOptions())
		if err != nil {
			t.Fatal(err)
		}
		if err := reg.AddLive(name, live); err != nil {
			t.Fatal(err)
		}
	}
	ts := httptest.NewServer(service.New(reg))
	defer ts.Close()

	res, err := Run(Remote(ts.URL), Config{
		Workers:  2,
		Duration: 300 * time.Millisecond,
		ReadPaths: []string{
			"/v1/graphs",
			"/v1/graphs/left/stats",
			"/v1/graphs/right/preview?k=2&n=3",
		},
		WriteRoutes: []string{"/v1/graphs/left/edges", "/v1/graphs/right/edges"},
		WriteBody:   edgeBody,
		WriteEvery:  8,
		Conditional: true,
		Seed:        3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Errors != 0 {
		t.Fatalf("%d request errors", res.Errors)
	}
	// Round-robin across two routes: both graphs must have been written,
	// which shows as at least two writes whenever any landed.
	if res.Writes < 2 {
		t.Fatalf("write arm produced %d writes, want ≥2 across both routes", res.Writes)
	}
	if res.NotModified == 0 {
		t.Fatal("conditional remote run produced no 304s: ETags did not survive the wire")
	}
}

// TestRunRejectsBadConfig: config errors surface instead of hanging.
func TestRunRejectsBadConfig(t *testing.T) {
	srv := benchServer(t)
	if _, err := Run(srv, Config{Duration: time.Millisecond}); err == nil {
		t.Fatal("no read paths: want error")
	}
	if _, err := Run(srv, Config{Duration: time.Millisecond, ReadPaths: readPaths, WriteEvery: 4}); err == nil {
		t.Fatal("WriteEvery without WriteRoutes: want error")
	}
	if _, err := Run(srv, Config{Duration: time.Millisecond, ReadPaths: []string{"/v1/graphs/nope/stats"}}); err == nil {
		t.Fatal("failing warmup path: want error")
	}
}
