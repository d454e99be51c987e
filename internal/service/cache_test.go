package service

// Response-cache tests: the proof obligations of epoch-keyed caching.
//
//   - the differential suite pins the headline invariant: a cache-served
//     body is byte-identical to a cold, cache-bypassed render for every
//     read endpoint × param combination — on a static graph, on a
//     mutable leader mid-write-history, and on a caught-up follower;
//   - the conditional-GET tests pin ETag semantics: stable within an
//     epoch (a repeated conditional GET answers 304 with no body),
//     changed across epochs (a stale validator revalidates to 200);
//   - the HEAD table pins HEAD × {200, 304, 404, 405}: identical
//     headers to GET, never a body;
//   - the invalidation tests (race-enabled) pin that a write batch on a
//     leader and a shipped batch on a follower each publish an epoch
//     whose reads never serve the prior epoch's cached body;
//   - the singleflight test pins that a thundering herd on one cold key
//     renders exactly once, and the panic test that a build which panics
//     releases the requests parked on it.

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/uta-db/previewtables/internal/fig1"
	"github.com/uta-db/previewtables/internal/wire"
)

// readCombos is every read endpoint × a spread of param combinations:
// all three modes, both key and non-key measures, tuple sampling plain
// and representative, both render formats, the stats doc and the
// cross-graph listing. The diverse combo is the paper's Sec. 4 example.
func readCombos(graph string) []string {
	g := "/v1/graphs/" + graph
	return []string{
		"/v1/graphs",
		g + "/stats",
		g + "/preview?k=2&n=3",
		g + "/preview?k=2&n=3&tuples=3",
		g + "/preview?k=3&n=6&key=coverage&nonkey=entropy&tuples=2",
		g + "/preview?k=2&n=4&mode=tight&d=2&key=walk&nonkey=entropy",
		g + "/preview?k=2&n=6&mode=diverse&d=2&rep=true&tuples=2",
		g + "/render?k=2&n=3&tuples=3",
		g + "/render?k=2&n=3&tuples=3&format=markdown",
	}
}

// fetched is one observed response.
type fetched struct {
	status int
	body   string
	etag   string
	ct     string
	cl     string
}

func fetch(t testing.TB, method, url, ifNoneMatch string) fetched {
	t.Helper()
	req, err := http.NewRequest(method, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	if ifNoneMatch != "" {
		req.Header.Set("If-None-Match", ifNoneMatch)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return fetched{
		status: resp.StatusCode,
		body:   string(raw),
		etag:   resp.Header.Get("ETag"),
		ct:     resp.Header.Get("Content-Type"),
		cl:     resp.Header.Get("Content-Length"),
	}
}

// assertCachedEqualsCold runs the differential on one server pair over
// the same registry: cached GETs must be byte-identical to cache-
// bypassed cold renders on every combo, carry the same ETag and
// Content-Type, and a repeated conditional GET within the epoch must
// answer 304 with no body.
func assertCachedEqualsCold(t *testing.T, what string, cachedTS, bypassTS *httptest.Server, graph string) {
	t.Helper()
	for _, u := range readCombos(graph) {
		cold := fetch(t, http.MethodGet, bypassTS.URL+u, "")
		if cold.status != http.StatusOK {
			t.Fatalf("%s: cold GET %s: status %d body %s", what, u, cold.status, cold.body)
		}
		warm := fetch(t, http.MethodGet, cachedTS.URL+u, "")  // miss: renders and caches
		again := fetch(t, http.MethodGet, cachedTS.URL+u, "") // hit: served bytes
		for name, got := range map[string]fetched{"first cached": warm, "repeat cached": again} {
			if got.body != cold.body {
				t.Errorf("%s: %s GET %s body diverged from cold render:\ncold:   %q\ncached: %q", what, name, u, cold.body, got.body)
			}
			if got.etag != cold.etag || got.etag == "" {
				t.Errorf("%s: %s GET %s ETag = %q, cold %q", what, name, u, got.etag, cold.etag)
			}
			if got.ct != cold.ct {
				t.Errorf("%s: %s GET %s Content-Type = %q, cold %q", what, name, u, got.ct, cold.ct)
			}
		}
		// A repeated conditional GET within the epoch is 304, bodiless,
		// and re-asserts the same validator.
		notMod := fetch(t, http.MethodGet, cachedTS.URL+u, cold.etag)
		if notMod.status != http.StatusNotModified || notMod.body != "" || notMod.etag != cold.etag {
			t.Errorf("%s: conditional GET %s = (%d, %q, etag %q), want (304, empty, %q)",
				what, u, notMod.status, notMod.body, notMod.etag, cold.etag)
		}
	}
}

// TestResponseDifferentialStatic: cached == cold on an immutable graph.
func TestResponseDifferentialStatic(t *testing.T) {
	reg, cachedTS := newTestServer(t)
	bypass := New(reg)
	bypass.NoCache = true
	bypassTS := httptest.NewServer(bypass)
	defer bypassTS.Close()
	assertCachedEqualsCold(t, "static", cachedTS, bypassTS, "fig1")
}

// TestResponseDifferentialLeaderAndFollower: cached == cold on a durable
// leader with write history, and on a caught-up follower — including
// that leader and follower mint the same validators, so a client can
// revalidate against either node.
func TestResponseDifferentialLeaderAndFollower(t *testing.T) {
	root := t.TempDir()
	leader := startDurable(t, "", filepath.Join(root, "leader-wal"))
	for _, b := range replBatches {
		postBatch(t, leader.ts, b.route, b.body)
	}
	bypass := New(leader.srv.reg)
	bypass.NoCache = true
	bypassTS := httptest.NewServer(bypass)
	defer bypassTS.Close()
	assertCachedEqualsCold(t, "leader", leader.ts, bypassTS, "fig1")

	node := startFollowerNode(t, leader.ts.URL, "", "")
	if err := node.f.WaitCaughtUp(uint64(len(replBatches)), 30*time.Second); err != nil {
		t.Fatal(err)
	}
	fBypass := New(node.reg)
	fBypass.NoCache = true
	fBypassTS := httptest.NewServer(fBypass)
	defer fBypassTS.Close()
	assertCachedEqualsCold(t, "follower", node.ts, fBypassTS, "fig1")

	// Cross-node validator stability: a tag fetched from the leader
	// revalidates 304 against the follower and vice versa.
	for _, u := range readCombos("fig1") {
		lt := fetch(t, http.MethodGet, leader.ts.URL+u, "").etag
		if got := fetch(t, http.MethodGet, node.ts.URL+u, lt); got.status != http.StatusNotModified {
			t.Errorf("leader tag %q for %s did not revalidate on the follower: status %d", lt, u, got.status)
		}
	}
}

// TestConditionalGet pins the validator lifecycle on one URL: stable
// tag within an epoch, 304 on exact match, weak-form and list-form
// matches, "*" honored only when a representation exists, and a stale
// tag answering 200 with the new epoch's bytes after a write.
func TestConditionalGet(t *testing.T) {
	leader := startDurable(t, "", filepath.Join(t.TempDir(), "wal"))
	u := leader.ts.URL + "/v1/graphs/fig1/stats"

	first := fetch(t, http.MethodGet, u, "")
	if first.status != http.StatusOK || first.etag == "" {
		t.Fatalf("GET: status %d etag %q", first.status, first.etag)
	}
	if got := fetch(t, http.MethodGet, u, first.etag); got.status != http.StatusNotModified {
		t.Fatalf("exact If-None-Match: status %d, want 304", got.status)
	}
	if got := fetch(t, http.MethodGet, u, "W/"+first.etag); got.status != http.StatusNotModified {
		t.Fatalf("weak If-None-Match: status %d, want 304", got.status)
	}
	if got := fetch(t, http.MethodGet, u, `"nope", `+first.etag); got.status != http.StatusNotModified {
		t.Fatalf("list If-None-Match: status %d, want 304", got.status)
	}
	if got := fetch(t, http.MethodGet, u, "*"); got.status != http.StatusNotModified {
		t.Fatalf("* If-None-Match on existing representation: status %d, want 304", got.status)
	}
	if got := fetch(t, http.MethodGet, u, `"nope"`); got.status != http.StatusOK || got.body != first.body {
		t.Fatalf("non-matching If-None-Match: status %d, want 200 with the full body", got.status)
	}

	// "*" asserts "any representation exists" — a well-formed request
	// the graph cannot satisfy has none, so it must NOT answer 304.
	unsat := leader.ts.URL + "/v1/graphs/fig1/preview?k=50&n=50"
	if got := fetch(t, http.MethodGet, unsat, "*"); got.status != http.StatusUnprocessableEntity {
		t.Fatalf("* on unsatisfiable request: status %d, want 422", got.status)
	}

	// A write publishes a new epoch: the old validator is stale, the
	// response is the new epoch's body with a new tag.
	postBatch(t, leader.ts, replBatches[0].route, replBatches[0].body)
	after := fetch(t, http.MethodGet, u, first.etag)
	if after.status != http.StatusOK {
		t.Fatalf("stale validator after write: status %d, want 200", after.status)
	}
	if after.etag == first.etag || after.body == first.body {
		t.Fatalf("write did not move the representation: etag %q→%q", first.etag, after.etag)
	}
	var doc struct {
		Epoch *uint64 `json:"epoch"`
	}
	if err := json.Unmarshal([]byte(after.body), &doc); err != nil || doc.Epoch == nil || *doc.Epoch != 1 {
		t.Fatalf("post-write stats body %q (err %v), want epoch 1", after.body, err)
	}
}

// TestHeadDiscipline is the satellite table: HEAD × {200, 304, 404,
// 405}. A HEAD 200 carries GET's exact ETag, Content-Type and
// Content-Length with an empty body; HEAD revalidates to 304 like GET;
// the 404/405 ordering is method-blind.
func TestHeadDiscipline(t *testing.T) {
	_, ts := newTestServer(t)
	okURLs := []string{
		"/v1/graphs",
		"/v1/graphs/fig1/stats",
		"/v1/graphs/fig1/preview?k=2&n=3&tuples=3",
		"/v1/graphs/fig1/render?k=2&n=3&format=markdown",
	}
	for _, u := range okURLs {
		get := fetch(t, http.MethodGet, ts.URL+u, "")
		if get.status != http.StatusOK {
			t.Fatalf("GET %s: status %d", u, get.status)
		}
		head := fetch(t, http.MethodHead, ts.URL+u, "")
		if head.status != http.StatusOK || head.body != "" {
			t.Errorf("HEAD %s: status %d body %q, want bodiless 200", u, head.status, head.body)
		}
		if head.etag != get.etag || head.ct != get.ct || head.cl != fmt.Sprint(len(get.body)) {
			t.Errorf("HEAD %s headers (etag %q, ct %q, cl %q) diverge from GET (etag %q, ct %q, len %d)",
				u, head.etag, head.ct, head.cl, get.etag, get.ct, len(get.body))
		}
		notMod := fetch(t, http.MethodHead, ts.URL+u, get.etag)
		if notMod.status != http.StatusNotModified || notMod.body != "" || notMod.etag != get.etag {
			t.Errorf("conditional HEAD %s = (%d, %q, etag %q), want (304, empty, %q)",
				u, notMod.status, notMod.body, notMod.etag, get.etag)
		}
	}
	for _, tc := range []struct {
		url    string
		status int
	}{
		{"/v1/graphs/nope/stats", http.StatusNotFound},
		{"/v1/graphs/fig1/nope", http.StatusNotFound},
		{"/v2/nope", http.StatusNotFound},
		{"/v1/graphs/fig1/edges", http.StatusMethodNotAllowed},
		{"/v1/graphs/fig1/triples", http.StatusMethodNotAllowed},
	} {
		if got := fetch(t, http.MethodHead, ts.URL+tc.url, ""); got.status != tc.status {
			t.Errorf("HEAD %s: status %d, want %d", tc.url, got.status, tc.status)
		}
	}
}

// TestCacheSingleflight: a thundering herd racing one cold URL renders
// exactly once — every other request is a hit (a served cached body or
// a singleflight wait on the one render).
func TestCacheSingleflight(t *testing.T) {
	reg := NewRegistry()
	if err := reg.Add("fig1", fig1.Graph()); err != nil {
		t.Fatal(err)
	}
	srv := New(reg)
	ts := httptest.NewServer(srv)
	defer ts.Close()

	const workers = 32
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	start := make(chan struct{})
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			got := fetch(t, http.MethodGet, ts.URL+"/v1/graphs/fig1/preview?k=2&n=3&tuples=4", "")
			if got.status != http.StatusOK {
				errs <- fmt.Errorf("status %d", got.status)
			}
		}()
	}
	close(start)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	hits, misses := srv.CacheStats()
	if misses != 1 || hits != workers-1 {
		t.Fatalf("herd of %d: hits %d misses %d, want %d and 1 (one render, everyone else served)", workers, hits, misses, workers-1)
	}
}

// TestCacheAliasSpellings: equivalent param spellings share one cache
// entry — same canonical key, same ETag, byte-identical bodies, and no
// extra render.
func TestCacheAliasSpellings(t *testing.T) {
	reg := NewRegistry()
	if err := reg.Add("fig1", fig1.Graph()); err != nil {
		t.Fatal(err)
	}
	srv := New(reg)
	ts := httptest.NewServer(srv)
	defer ts.Close()

	spellings := []string{
		"/v1/graphs/fig1/preview?k=2&n=3&key=walk",
		"/v1/graphs/fig1/preview?key=random-walk&n=3&k=2",
		"/v1/graphs/fig1/preview?k=2&n=3&key=randomwalk&nonkey=coverage&rep=false",
		"/v1/graphs/fig1/preview?k=2&n=3&key=walk&ignored=param",
	}
	first := fetch(t, http.MethodGet, ts.URL+spellings[0], "")
	if first.status != http.StatusOK {
		t.Fatalf("status %d", first.status)
	}
	for _, u := range spellings[1:] {
		got := fetch(t, http.MethodGet, ts.URL+u, "")
		if got.body != first.body || got.etag != first.etag {
			t.Errorf("GET %s: (etag %q) diverged from canonical sibling (etag %q)", u, got.etag, first.etag)
		}
	}
	hits, misses := srv.CacheStats()
	if misses != 1 || hits != uint64(len(spellings)-1) {
		t.Fatalf("alias spellings: hits %d misses %d, want %d and 1", hits, misses, len(spellings)-1)
	}
}

// epochOf extracts the epoch a stats or preview body reports.
func epochOf(t testing.TB, body string) uint64 {
	t.Helper()
	var doc struct {
		Epoch *uint64 `json:"epoch"`
	}
	if err := json.Unmarshal([]byte(body), &doc); err != nil || doc.Epoch == nil {
		t.Fatalf("no epoch in body %q (err %v)", body, err)
	}
	return *doc.Epoch
}

// TestCacheInvalidationUnderWrites is the race-enabled invalidation
// property on a leader: concurrent readers hammer cached routes while a
// writer publishes epochs; every reader's observed epoch sequence is
// monotone, and a read issued after a write's acknowledgment never
// serves an older epoch's cached body.
func TestCacheInvalidationUnderWrites(t *testing.T) {
	leader := startDurable(t, "", filepath.Join(t.TempDir(), "wal"))
	stop := make(chan struct{})
	var wg sync.WaitGroup
	errs := make(chan error, 64)

	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var last uint64
			for {
				select {
				case <-stop:
					return
				default:
				}
				got := fetch(t, http.MethodGet, leader.ts.URL+"/v1/graphs/fig1/stats", "")
				if got.status != http.StatusOK {
					errs <- fmt.Errorf("reader: status %d", got.status)
					return
				}
				e := epochOf(t, got.body)
				if e < last {
					errs <- fmt.Errorf("reader: epoch regressed %d → %d (stale cached body served)", last, e)
					return
				}
				last = e
			}
		}()
	}

	for i, b := range replBatches {
		postBatch(t, leader.ts, b.route, b.body)
		acked := uint64(i + 1)
		// A read after the ack must reflect at least the acked epoch:
		// the prior epoch's cached body is unreachable the moment the
		// write's publish lands.
		got := fetch(t, http.MethodGet, leader.ts.URL+"/v1/graphs/fig1/stats", "")
		if e := epochOf(t, got.body); e < acked {
			t.Fatalf("after ack of epoch %d, stats served epoch %d", acked, e)
		}
		pv := fetch(t, http.MethodGet, leader.ts.URL+"/v1/graphs/fig1/preview?k=2&n=3", "")
		if pv.status != http.StatusOK {
			t.Fatalf("preview after epoch %d: status %d", acked, pv.status)
		}
		if e := epochOf(t, pv.body); e < acked {
			t.Fatalf("after ack of epoch %d, preview served epoch %d", acked, e)
		}
	}
	close(stop)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestFollowerCacheInvalidation: a shipped batch invalidates the
// follower's cached bodies exactly like a local write invalidates the
// leader's — once ApplyShipped publishes epoch e, cached reads serve e,
// a stale validator answers 200 (not 304), and the body is
// byte-identical to the leader's.
func TestFollowerCacheInvalidation(t *testing.T) {
	root := t.TempDir()
	leader := startDurable(t, "", filepath.Join(root, "leader-wal"))
	node := startFollowerNode(t, leader.ts.URL, "", "")

	postBatch(t, leader.ts, replBatches[0].route, replBatches[0].body)
	if err := node.f.WaitCaughtUp(1, 30*time.Second); err != nil {
		t.Fatal(err)
	}
	u := "/v1/graphs/fig1/stats"
	before := fetch(t, http.MethodGet, node.ts.URL+u, "")
	if e := epochOf(t, before.body); e != 1 {
		t.Fatalf("follower stats epoch %d, want 1", e)
	}
	// Warm the preview cache at epoch 1 too.
	pvBefore := fetch(t, http.MethodGet, node.ts.URL+"/v1/graphs/fig1/preview?k=2&n=3", "")

	postBatch(t, leader.ts, replBatches[1].route, replBatches[1].body)
	if err := node.f.WaitCaughtUp(2, 30*time.Second); err != nil {
		t.Fatal(err)
	}
	after := fetch(t, http.MethodGet, node.ts.URL+u, "")
	if e := epochOf(t, after.body); e != 2 {
		t.Fatalf("follower stats after shipped epoch 2 served epoch %d (stale cached body)", e)
	}
	if got := fetch(t, http.MethodGet, node.ts.URL+u, before.etag); got.status != http.StatusOK {
		t.Fatalf("stale validator on follower: status %d, want 200 with the new epoch", got.status)
	}
	pvAfter := fetch(t, http.MethodGet, node.ts.URL+"/v1/graphs/fig1/preview?k=2&n=3", "")
	if e := epochOf(t, pvAfter.body); e != 2 {
		t.Fatalf("follower preview after shipped epoch 2 served epoch %d", e)
	}
	if pvAfter.body == pvBefore.body && pvAfter.etag == pvBefore.etag {
		t.Fatal("shipped batch did not invalidate the follower's cached preview")
	}
	// And the invalidated read matches the leader byte for byte.
	leaderPv := fetch(t, http.MethodGet, leader.ts.URL+"/v1/graphs/fig1/preview?k=2&n=3", "")
	if pvAfter.body != leaderPv.body || pvAfter.etag != leaderPv.etag {
		t.Fatal("follower's post-invalidation preview diverged from the leader's")
	}
}

// TestElapsedHeader: the per-request timing that used to live in the
// body rides in X-Previewtables-Elapsed on every read route, and the
// body carries no elapsed_ms at all.
func TestElapsedHeader(t *testing.T) {
	_, ts := newTestServer(t)
	for _, u := range []string{"/v1/graphs", "/v1/graphs/fig1/stats", "/v1/graphs/fig1/preview?k=2&n=3"} {
		resp, err := http.Get(ts.URL + u)
		if err != nil {
			t.Fatal(err)
		}
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.Header.Get(wire.ElapsedHeader) == "" {
			t.Errorf("GET %s: no %s header", u, wire.ElapsedHeader)
		}
		if strings.Contains(string(raw), "elapsed_ms") {
			t.Errorf("GET %s body still carries elapsed_ms: %s", u, raw)
		}
	}
}

// BenchmarkResponseCacheHit is the steady-state hot path: one URL,
// warm cache, each request a lookup + conditional check + one Write.
func BenchmarkResponseCacheHit(b *testing.B) {
	benchServing(b, false, "")
}

// BenchmarkResponseCacheBypass is the contrast arm: the identical
// request stream with the cache disabled, paying discovery + document
// building + JSON encoding per request.
func BenchmarkResponseCacheBypass(b *testing.B) {
	benchServing(b, true, "")
}

// BenchmarkResponseCache304 is the conditional hot path: the client
// replays the current validator, so the server answers 304 from the
// ETag alone without touching the cache.
func BenchmarkResponseCache304(b *testing.B) {
	reg := NewRegistry()
	if err := reg.Add("fig1", fig1.Graph()); err != nil {
		b.Fatal(err)
	}
	srv := New(reg)
	warm := httptest.NewRequest(http.MethodGet, "/v1/graphs/fig1/preview?k=2&n=3&tuples=4", nil)
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, warm)
	etag := rec.Header().Get("ETag")
	if rec.Code != http.StatusOK || etag == "" {
		b.Fatalf("warmup: status %d etag %q", rec.Code, etag)
	}
	benchServing(b, false, etag)
}

func benchServing(b *testing.B, noCache bool, ifNoneMatch string) {
	reg := NewRegistry()
	if err := reg.Add("fig1", fig1.Graph()); err != nil {
		b.Fatal(err)
	}
	srv := New(reg)
	srv.NoCache = noCache
	warm := httptest.NewRequest(http.MethodGet, "/v1/graphs/fig1/preview?k=2&n=3&tuples=4", nil)
	srv.ServeHTTP(httptest.NewRecorder(), warm)
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			req := httptest.NewRequest(http.MethodGet, "/v1/graphs/fig1/preview?k=2&n=3&tuples=4", nil)
			if ifNoneMatch != "" {
				req.Header.Set("If-None-Match", ifNoneMatch)
			}
			rec := httptest.NewRecorder()
			srv.ServeHTTP(rec, req)
			wantStatus := http.StatusOK
			if ifNoneMatch != "" {
				wantStatus = http.StatusNotModified
			}
			if rec.Code != wantStatus {
				panic(fmt.Sprintf("status %d: %s", rec.Code, rec.Body))
			}
		}
	})
}

// fillToCapacity stuffs v's response cache with distinct completed
// synthetic entries until it holds exactly maxCachedResponses.
func fillToCapacity(t testing.TB, v *view) {
	t.Helper()
	for i := 0; ; i++ {
		v.respMu.Lock()
		n := len(v.resp)
		v.respMu.Unlock()
		if n >= maxCachedResponses {
			return
		}
		key := fmt.Sprintf("synthetic-%d", i)
		if _, _, err := v.cachedResponse(key, func() (*cacheEntry, error) {
			return &cacheEntry{body: []byte(key)}, nil
		}); err != nil {
			t.Fatal(err)
		}
	}
}

// TestCacheAtCapacityAdmitsNewKey pins the admission bugfix: the cache
// at maxCachedResponses entries must admit the next distinct key by
// evicting an existing completed entry — not build-then-delete the
// newcomer forever. The 4097th key renders once and the second request
// for it is served from cache.
func TestCacheAtCapacityAdmitsNewKey(t *testing.T) {
	reg := NewRegistry()
	if err := reg.Add("fig1", fig1.Graph()); err != nil {
		t.Fatal(err)
	}
	gr, _ := reg.Get("fig1")
	v := gr.view()
	fillToCapacity(t, v)

	builds := 0
	newcomer := func() (*cacheEntry, error) {
		builds++
		return &cacheEntry{body: []byte("newcomer")}, nil
	}
	if _, hit, err := v.cachedResponse("the-4097th-key", newcomer); err != nil || hit {
		t.Fatalf("first request: hit=%t err=%v, want a build", hit, err)
	}
	if _, hit, err := v.cachedResponse("the-4097th-key", newcomer); err != nil || !hit {
		t.Fatalf("second request: hit=%t err=%v, want served from cache", hit, err)
	}
	if builds != 1 {
		t.Fatalf("newcomer built %d times, want 1", builds)
	}
	v.respMu.Lock()
	n := len(v.resp)
	v.respMu.Unlock()
	if n > maxCachedResponses {
		t.Fatalf("cache grew past its bound: %d > %d", n, maxCachedResponses)
	}
}

// TestCacheAtCapacityHerd extends the singleflight property to the
// at-capacity regime: with the cache already full, a 32-way herd racing
// one uncached URL still renders exactly once, and the herd's key is
// retained afterwards.
func TestCacheAtCapacityHerd(t *testing.T) {
	reg := NewRegistry()
	if err := reg.Add("fig1", fig1.Graph()); err != nil {
		t.Fatal(err)
	}
	gr, _ := reg.Get("fig1")
	fillToCapacity(t, gr.view())

	srv := New(reg)
	ts := httptest.NewServer(srv)
	defer ts.Close()

	const workers = 32
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	start := make(chan struct{})
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			got := fetch(t, http.MethodGet, ts.URL+"/v1/graphs/fig1/preview?k=2&n=3&tuples=4", "")
			if got.status != http.StatusOK {
				errs <- fmt.Errorf("status %d", got.status)
			}
		}()
	}
	close(start)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	hits, misses := srv.CacheStats()
	if misses != 1 || hits != workers-1 {
		t.Fatalf("at-capacity herd of %d: hits %d misses %d, want %d and 1", workers, hits, misses, workers-1)
	}
	// A repeat request is a pure cache hit: the herd's entry was admitted
	// (something else was evicted), not built-then-deleted.
	if got := fetch(t, http.MethodGet, ts.URL+"/v1/graphs/fig1/preview?k=2&n=3&tuples=4", ""); got.status != http.StatusOK {
		t.Fatalf("repeat request: status %d", got.status)
	}
	if hits2, misses2 := srv.CacheStats(); misses2 != misses || hits2 != hits+1 {
		t.Fatalf("repeat request rendered again: hits %d→%d misses %d→%d", hits, hits2, misses, misses2)
	}
}

// parkedOnSlot reports whether some goroutine is blocked on a channel
// receive inside frame: a request parked on another's response build.
func parkedOnSlot(frame string) bool {
	buf := make([]byte, 1<<20)
	buf = buf[:runtime.Stack(buf, true)]
	for _, g := range strings.Split(string(buf), "\n\n") {
		if strings.Contains(g, "[chan receive") && strings.Contains(g, frame) {
			return true
		}
	}
	return false
}

// TestResponseCachePanicReleasesWaiters: a build that panics after a
// request has parked on its slot withdraws the slot and releases the
// parked request, which then builds and caches the entry itself; the
// next call is a cache hit. A static graph keeps one view for the
// process lifetime, so a slot left unreleased would park every later
// request for its key forever. Both caches share the slot protocol, so
// both are rows here.
func TestResponseCachePanicReleasesWaiters(t *testing.T) {
	reg := NewRegistry()
	if err := reg.Add("fig1", fig1.Graph()); err != nil {
		t.Fatal(err)
	}
	gr, _ := reg.Get("fig1")
	for _, row := range []struct {
		name  string
		cache responseCacher
		frame string // the waiter's frame while it is parked
	}{
		{"view", gr.view(), "(*view).cachedResponse"},
		{"list", &listCache{}, "(*listCache).cachedResponse"},
	} {
		row := row
		t.Run(row.name, func(t *testing.T) {
			const key = "panicking-key"
			// The builder holds its slot until released; a WaitGroup, not a
			// channel, so the builder itself never looks parked.
			var release sync.WaitGroup
			release.Add(1)
			building := make(chan struct{})
			builder := make(chan any, 1)
			go func() {
				defer func() { builder <- recover() }()
				_, _, _ = row.cache.cachedResponse(key, func() (*cacheEntry, error) {
					close(building)
					release.Wait()
					panic("build failed")
				})
			}()
			<-building

			builds := 0
			rebuild := func() (*cacheEntry, error) {
				builds++
				return &cacheEntry{body: []byte("rebuilt")}, nil
			}
			type result struct {
				ent *cacheEntry
				hit bool
				err error
			}
			waiter := make(chan result, 1)
			go func() {
				var r result
				r.ent, r.hit, r.err = row.cache.cachedResponse(key, rebuild)
				waiter <- r
			}()
			deadline := time.Now().Add(10 * time.Second)
			for !parkedOnSlot(row.frame) {
				if time.Now().After(deadline) {
					t.Fatal("timed out waiting for a request to park on the build")
				}
				time.Sleep(time.Millisecond)
			}
			release.Done()
			if p := <-builder; p == nil {
				t.Fatal("the builder did not panic")
			}

			var w result
			select {
			case w = <-waiter:
			case <-time.After(10 * time.Second):
				t.Fatal("the parked request was still blocked 10s after its build panicked")
			}
			if w.err != nil || w.hit || w.ent == nil || string(w.ent.body) != "rebuilt" {
				t.Fatalf("parked request got (%+v, hit=%t, %v), want its own rebuilt entry", w.ent, w.hit, w.err)
			}
			ent, hit, err := row.cache.cachedResponse(key, rebuild)
			if err != nil || !hit || ent != w.ent {
				t.Fatalf("next call got (%+v, hit=%t, %v), want the cached rebuilt entry", ent, hit, err)
			}
			if builds != 1 {
				t.Fatalf("rebuilt %d times, want 1", builds)
			}
		})
	}
}
