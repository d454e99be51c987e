package service

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"github.com/uta-db/previewtables/internal/core"
	"github.com/uta-db/previewtables/internal/dynamic"
	"github.com/uta-db/previewtables/internal/fig1"
	"github.com/uta-db/previewtables/internal/score"
)

// newMutableServer registers the Fig. 1 graph as a live graph named
// "fig1" and returns the pieces tests assert on.
func newMutableServer(t testing.TB) (*Registry, *dynamic.Live, *Server, *httptest.Server) {
	t.Helper()
	dg, err := dynamic.FromEntityGraph(fig1.Graph())
	if err != nil {
		t.Fatal(err)
	}
	live, err := dynamic.NewLive(dg, score.DefaultWalkOptions())
	if err != nil {
		t.Fatal(err)
	}
	reg := NewRegistry()
	if err := reg.AddLive("fig1", live); err != nil {
		t.Fatal(err)
	}
	srv := New(reg)
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return reg, live, srv, ts
}

// post sends a body and returns status and response bytes.
func post(t testing.TB, url, body string) (int, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, b
}

// mutationDoc mirrors mutationResponse for decoding.
type mutationDoc struct {
	Graph        string `json:"graph"`
	Epoch        uint64 `json:"epoch"`
	AppliedEdges int    `json:"applied_edges"`
	Stats        struct {
		Edges    int     `json:"edges"`
		Entities int     `json:"entities"`
		Mutable  bool    `json:"mutable"`
		Epoch    *uint64 `json:"epoch"`
	} `json:"stats"`
}

func TestPostEdgesAppliesBatch(t *testing.T) {
	_, live, _, ts := newMutableServer(t)
	before := live.Snapshot().Frozen.Stats()

	body := `{"edges": [
		{"from": "Danny Elfman", "rel": "Music", "from_type": "FILM COMPOSER", "to_type": "` + fig1.Film + `", "to": "Men in Black"},
		{"from": "Danny Elfman", "rel": "Music", "to": "Men in Black II"}
	]}`
	status, raw := post(t, ts.URL+"/v1/graphs/fig1/edges", body)
	if status != http.StatusOK {
		t.Fatalf("POST edges: status %d body %s", status, raw)
	}
	var doc mutationDoc
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Graph != "fig1" || doc.Epoch != 1 || doc.AppliedEdges != 2 {
		t.Fatalf("mutation echo: %+v", doc)
	}
	if doc.Stats.Edges != before.Edges+2 || !doc.Stats.Mutable || doc.Stats.Epoch == nil || *doc.Stats.Epoch != 1 {
		t.Fatalf("mutation stats: %+v (before %+v)", doc.Stats, before)
	}
	if e := live.Snapshot().Epoch; e != 1 {
		t.Fatalf("live epoch = %d, want 1", e)
	}

	// The untyped second edge resolved against the batch-declared rel: both
	// land on the same relationship type.
	g := live.Snapshot().Frozen
	composer, ok := g.TypeByName("FILM COMPOSER")
	if !ok {
		t.Fatal("batch did not declare FILM COMPOSER")
	}
	if got := g.TypeCoverage(composer); got != 1 {
		t.Fatalf("composer coverage = %d, want 1", got)
	}

	// Stats and preview now carry the epoch.
	var stats struct {
		Epoch   *uint64 `json:"epoch"`
		Mutable bool    `json:"mutable"`
		Edges   int     `json:"edges"`
	}
	if status := getJSON(t, ts.URL+"/v1/graphs/fig1/stats", &stats); status != http.StatusOK {
		t.Fatalf("stats: %d", status)
	}
	if !stats.Mutable || stats.Epoch == nil || *stats.Epoch != 1 || stats.Edges != before.Edges+2 {
		t.Fatalf("stats after mutation: %+v", stats)
	}
	var pv struct {
		Epoch *uint64 `json:"epoch"`
	}
	if status := getJSON(t, ts.URL+"/v1/graphs/fig1/preview?k=2&n=3", &pv); status != http.StatusOK {
		t.Fatalf("preview: %d", status)
	}
	if pv.Epoch == nil || *pv.Epoch != 1 {
		t.Fatalf("preview epoch = %v, want 1", pv.Epoch)
	}
}

func TestPostTriplesAppliesBatch(t *testing.T) {
	_, live, _, ts := newMutableServer(t)
	body := `# a producer credit and a brand-new type
type "STUDIO"
entity "Columbia Pictures" "STUDIO"
edge "Columbia Pictures" "Produced By" "STUDIO" "` + fig1.Film + `" "Men in Black"
edge "Columbia Pictures" "Produced By" "STUDIO" "` + fig1.Film + `" "Hancock"
`
	status, raw := post(t, ts.URL+"/v1/graphs/fig1/triples", body)
	if status != http.StatusOK {
		t.Fatalf("POST triples: status %d body %s", status, raw)
	}
	var doc mutationDoc
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Epoch != 1 || doc.AppliedEdges != 2 {
		t.Fatalf("mutation echo: %+v", doc)
	}
	snap := live.Snapshot()
	if _, ok := snap.Frozen.TypeByName("STUDIO"); !ok {
		t.Fatal("triple batch did not declare STUDIO")
	}
	if snap.Epoch != 1 {
		t.Fatalf("epoch %d, want 1", snap.Epoch)
	}
}

// TestStaticGraphEpochless pins the static path: no epoch or mutable
// fields anywhere, and writes are refused with 405.
func TestStaticGraphEpochless(t *testing.T) {
	_, ts := newTestServer(t)
	var stats map[string]json.RawMessage
	if status := getJSON(t, ts.URL+"/v1/graphs/fig1/stats", &stats); status != http.StatusOK {
		t.Fatal("stats failed")
	}
	if _, ok := stats["epoch"]; ok {
		t.Fatalf("static stats carry an epoch: %v", stats)
	}
	if _, ok := stats["mutable"]; ok {
		t.Fatalf("static stats claim mutability: %v", stats)
	}
	var pv map[string]json.RawMessage
	if status := getJSON(t, ts.URL+"/v1/graphs/fig1/preview?k=1&n=1", &pv); status != http.StatusOK {
		t.Fatal("preview failed")
	}
	if _, ok := pv["epoch"]; ok {
		t.Fatalf("static preview carries an epoch: %v", pv)
	}

	status, raw := post(t, ts.URL+"/v1/graphs/fig1/edges", `{"edges":[{"from":"a","rel":"r","to":"b"}]}`)
	if status != http.StatusMethodNotAllowed {
		t.Fatalf("write to read-only graph: status %d body %s, want 405", status, raw)
	}
	if !strings.Contains(string(raw), "read-only") {
		t.Fatalf("read-only error body: %s", raw)
	}
}

func TestWriteErrorPaths(t *testing.T) {
	_, live, srv, ts := newMutableServer(t)
	srv.MaxBatchEdges = 4
	srv.MaxBodyBytes = 1 << 16

	edge := func(docs ...string) string {
		return `{"edges":[` + strings.Join(docs, ",") + `]}`
	}
	big := make([]string, 5)
	for i := range big {
		big[i] = fmt.Sprintf(`{"from":"f%d","rel":"Genres","to":"g"}`, i)
	}
	cases := []struct {
		name   string
		path   string
		body   string
		status int
		errHas string
	}{
		{"malformed JSON", "/v1/graphs/fig1/edges", `{"edges": [`, http.StatusBadRequest, "decoding"},
		{"empty batch", "/v1/graphs/fig1/edges", `{"edges": []}`, http.StatusBadRequest, "empty batch"},
		{"missing fields", "/v1/graphs/fig1/edges", edge(`{"from":"a","to":"b"}`), http.StatusBadRequest, "required"},
		{"one-sided typing", "/v1/graphs/fig1/edges", edge(`{"from":"a","rel":"r","from_type":"X","to":"b"}`), http.StatusBadRequest, "together"},
		{"unknown rel", "/v1/graphs/fig1/edges", edge(`{"from":"a","rel":"Narrated By","to":"b"}`), http.StatusUnprocessableEntity, "unknown relationship type"},
		{"ambiguous rel", "/v1/graphs/fig1/edges", edge(`{"from":"Will Smith","rel":"Award Winners","to":"Saturn Award"}`), http.StatusUnprocessableEntity, "ambiguous"},
		{"unknown graph", "/v1/graphs/nope/edges", edge(`{"from":"a","rel":"r","to":"b"}`), http.StatusNotFound, "no graph"},
		{"oversized batch", "/v1/graphs/fig1/edges", edge(big...), http.StatusRequestEntityTooLarge, "exceeds limit"},
		{"oversized body", "/v1/graphs/fig1/edges", `{"edges":[{"from":"` + strings.Repeat("x", 1<<17) + `","rel":"r","to":"b"}]}`, http.StatusRequestEntityTooLarge, "exceeds"},
		{"triples syntax error", "/v1/graphs/fig1/triples", "edge only two\n", http.StatusBadRequest, "line 1"},
		{"triples empty", "/v1/graphs/fig1/triples", "# nothing\n", http.StatusBadRequest, "empty batch"},
		{"triples oversized batch", "/v1/graphs/fig1/triples",
			strings.Repeat(`edge "a" "r" "X" "Y" "b"`+"\n", 5), http.StatusRequestEntityTooLarge, "exceeds limit"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			status, raw := post(t, ts.URL+tc.path, tc.body)
			if status != tc.status {
				t.Fatalf("status %d body %s, want %d", status, raw, tc.status)
			}
			var doc struct {
				Error string `json:"error"`
			}
			if err := json.Unmarshal(raw, &doc); err != nil || doc.Error == "" {
				t.Fatalf("error body %s (%v)", raw, err)
			}
			if !strings.Contains(doc.Error, tc.errHas) {
				t.Fatalf("error %q does not mention %q", doc.Error, tc.errHas)
			}
		})
	}
	// None of the failures published anything: epoch 0.
	if snap := live.Snapshot(); snap.Epoch != 0 {
		t.Fatalf("failed batches mutated the graph: epoch %d", snap.Epoch)
	}

	// Method discipline on the write routes.
	resp, err := http.Get(ts.URL + "/v1/graphs/fig1/edges")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed || resp.Header.Get("Allow") != "POST" {
		t.Fatalf("GET on write route: status %d allow %q", resp.StatusCode, resp.Header.Get("Allow"))
	}
}

// TestSearchBudgetOnMutableGraph keeps the ErrSearchBudget → 422 mapping
// intact on the live path, across an epoch bump.
func TestSearchBudgetOnMutableGraph(t *testing.T) {
	_, _, srv, ts := newMutableServer(t)
	srv.SearchBudget = 2
	if status, raw := post(t, ts.URL+"/v1/graphs/fig1/edges",
		`{"edges":[{"from":"Peter Berg","rel":"Director","to":"I, Robot"}]}`); status != http.StatusOK {
		t.Fatalf("seed mutation failed: %d %s", status, raw)
	}
	var doc struct {
		Error string `json:"error"`
	}
	status := getJSON(t, ts.URL+"/v1/graphs/fig1/preview?k=3&n=3&mode=diverse&d=0", &doc)
	if status != http.StatusUnprocessableEntity || !strings.Contains(doc.Error, "budget") {
		t.Fatalf("budget on mutable graph: status %d error %q, want 422 mentioning budget", status, doc.Error)
	}
}

// TestNoStaleDiscovererAcrossEpochs pins the invalidation contract: a
// mutation swaps the whole view, so the score set identity changes, while
// the graph's maintained state for a measure pair stays one object that
// is refreshed to the new epoch rather than left at the old one.
func TestNoStaleDiscovererAcrossEpochs(t *testing.T) {
	reg, _, _, ts := newMutableServer(t)
	gr, ok := reg.Get("fig1")
	if !ok {
		t.Fatal("graph missing")
	}
	v1 := gr.view()
	m := gr.maintainedFor(v1, score.KeyCoverage, score.NonKeyCoverage)
	if m != gr.maintainedFor(v1, score.KeyCoverage, score.NonKeyCoverage) {
		t.Fatal("same epoch handed out distinct maintained states")
	}
	if e, ok := m.Epoch(); !ok || e != v1.Epoch {
		t.Fatalf("maintained state at epoch %d (initialized %t), want %d", e, ok, v1.Epoch)
	}
	if status, raw := post(t, ts.URL+"/v1/graphs/fig1/edges",
		`{"edges":[{"from":"Alex Proyas","rel":"Director","to":"Hancock"}]}`); status != http.StatusOK {
		t.Fatalf("mutation failed: %d %s", status, raw)
	}
	v2 := gr.view()
	if v2 == v1 || v2.Epoch != v1.Epoch+1 {
		t.Fatalf("view not swapped: epochs %d → %d", v1.Epoch, v2.Epoch)
	}
	if v2.Scores == v1.Scores {
		t.Fatal("stale score set survived the epoch bump")
	}
	if gr.maintainedFor(v2, score.KeyCoverage, score.NonKeyCoverage) != m {
		t.Fatal("the maintained state was not carried across the epoch bump")
	}
	if e, _ := m.Epoch(); e != v2.Epoch {
		t.Fatalf("maintained state stayed at epoch %d after the bump to %d", e, v2.Epoch)
	}
}

// TestConcurrentWritesAndPreviews is the serving-layer race test: several
// writers stream disjoint edge batches while readers hammer preview,
// render and stats. Asserts, under -race: every request succeeds, epochs
// observed by each client are monotone, every batch got exactly one epoch
// and one score refresh, and the final preview matches a from-scratch
// discovery on the final frozen snapshot (no stale Discoverer or score
// set survived).
func TestConcurrentWritesAndPreviews(t *testing.T) {
	_, live, _, ts := newMutableServer(t)
	const writers, batches, readers = 4, 5, 4

	var writersWG, readersWG sync.WaitGroup
	errs := make(chan error, writers*batches+readers)
	epochs := make(chan uint64, writers*batches)
	done := make(chan struct{})

	for w := 0; w < writers; w++ {
		w := w
		writersWG.Add(1)
		go func() {
			defer writersWG.Done()
			for b := 0; b < batches; b++ {
				body := fmt.Sprintf(
					`{"edges":[{"from":"Film w%db%d","rel":"Genres","from_type":%q,"to_type":"FILM GENRE","to":"Action Film"}]}`,
					w, b, fig1.Film)
				resp, err := http.Post(ts.URL+"/v1/graphs/fig1/edges", "application/json", strings.NewReader(body))
				if err != nil {
					errs <- err
					continue
				}
				raw, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					errs <- fmt.Errorf("writer %d batch %d: status %d body %s", w, b, resp.StatusCode, raw)
					continue
				}
				var doc mutationDoc
				if err := json.Unmarshal(raw, &doc); err != nil {
					errs <- err
					continue
				}
				epochs <- doc.Epoch
			}
		}()
	}
	for r := 0; r < readers; r++ {
		r := r
		readersWG.Add(1)
		go func() {
			defer readersWG.Done()
			urls := []string{
				ts.URL + "/v1/graphs/fig1/preview?k=2&n=3",
				ts.URL + "/v1/graphs/fig1/stats",
				ts.URL + "/v1/graphs/fig1/render?k=1&n=1",
			}
			var last uint64
			for i := 0; ; i++ {
				select {
				case <-done:
					return
				default:
				}
				u := urls[i%len(urls)]
				resp, err := http.Get(u)
				if err != nil {
					errs <- err
					return
				}
				raw, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					errs <- fmt.Errorf("reader %d: %s: status %d body %s", r, u, resp.StatusCode, raw)
					return
				}
				if strings.Contains(u, "render") {
					continue // text body, no epoch
				}
				var doc struct {
					Epoch *uint64 `json:"epoch"`
				}
				if err := json.Unmarshal(raw, &doc); err != nil || doc.Epoch == nil {
					errs <- fmt.Errorf("reader %d: %s: epochless body %s (%v)", r, u, raw, err)
					return
				}
				if *doc.Epoch < last {
					errs <- fmt.Errorf("reader %d: epoch regressed %d → %d", r, last, *doc.Epoch)
					return
				}
				last = *doc.Epoch
			}
		}()
	}
	// Readers stop once every writer has finished (success or failure), so
	// a failing batch surfaces as a test error instead of a hang.
	writersWG.Wait()
	close(done)
	readersWG.Wait()
	close(errs)
	close(epochs)
	for err := range errs {
		t.Error(err)
	}

	// Exactly one epoch (and one refresh) per batch: the responses carry a
	// permutation of 1..writers*batches.
	seen := map[uint64]bool{}
	for e := range epochs {
		if seen[e] {
			t.Errorf("epoch %d answered two batches", e)
		}
		seen[e] = true
	}
	if len(seen) != writers*batches {
		t.Fatalf("got %d distinct epochs, want %d", len(seen), writers*batches)
	}
	for e := uint64(1); e <= writers*batches; e++ {
		if !seen[e] {
			t.Fatalf("epoch %d never answered a batch", e)
		}
	}
	if got := live.Snapshot().Epoch; got != writers*batches {
		t.Fatalf("live epoch = %d, want exactly %d (one per batch)", got, writers*batches)
	}

	// The served preview now matches a from-scratch discovery against the
	// final snapshot: no stale Discoverer or scores.
	snap := live.Snapshot()
	if snap.Epoch != writers*batches {
		t.Fatalf("final epoch = %d, want %d", snap.Epoch, writers*batches)
	}
	want, err := core.New(score.Compute(snap.Frozen, score.DefaultWalkOptions()),
		core.Options{Key: score.KeyCoverage, NonKey: score.NonKeyCoverage}).
		Discover(core.Constraint{K: 2, N: 3})
	if err != nil {
		t.Fatal(err)
	}
	var final struct {
		Epoch   *uint64 `json:"epoch"`
		Preview struct {
			Score float64 `json:"score"`
		} `json:"preview"`
	}
	if status := getJSON(t, ts.URL+"/v1/graphs/fig1/preview?k=2&n=3", &final); status != http.StatusOK {
		t.Fatalf("final preview: %d", status)
	}
	if final.Epoch == nil || *final.Epoch != uint64(writers*batches) {
		t.Fatalf("final preview epoch = %v, want %d", final.Epoch, writers*batches)
	}
	if final.Preview.Score != want.Score {
		t.Fatalf("final preview score = %v, want %v (stale snapshot served?)", final.Preview.Score, want.Score)
	}
}

// TestWriteRouteMethodDiscipline is direct coverage of the write-path
// 405 surface, until now only exercised incidentally: every non-POST
// method on the write routes is refused with Allow: POST, POST on the
// read routes is refused with Allow: GET, HEAD, and a write to a
// read-only graph is 405 with a deliberately empty Allow (the route
// supports no method at all; see requireMutable).
func TestWriteRouteMethodDiscipline(t *testing.T) {
	_, _, _, mutTS := newMutableServer(t)
	_, staticTS := newTestServer(t)

	do := func(method, url, body string) *http.Response {
		t.Helper()
		req, err := http.NewRequest(method, url, strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp
	}

	for _, route := range []string{"edges", "triples"} {
		for _, method := range []string{http.MethodGet, http.MethodHead, http.MethodPut, http.MethodDelete, http.MethodPatch} {
			resp := do(method, mutTS.URL+"/v1/graphs/fig1/"+route, "")
			if resp.StatusCode != http.StatusMethodNotAllowed || resp.Header.Get("Allow") != "POST" {
				t.Errorf("%s /%s on mutable graph: status %d allow %q, want 405 / POST",
					method, route, resp.StatusCode, resp.Header.Get("Allow"))
			}
		}
	}
	for _, route := range []string{"stats", "preview", "render"} {
		resp := do(http.MethodPost, mutTS.URL+"/v1/graphs/fig1/"+route, "{}")
		if resp.StatusCode != http.StatusMethodNotAllowed || resp.Header.Get("Allow") != "GET, HEAD" {
			t.Errorf("POST /%s: status %d allow %q, want 405 / GET, HEAD",
				route, resp.StatusCode, resp.Header.Get("Allow"))
		}
	}
	for _, route := range []string{"edges", "triples"} {
		resp := do(http.MethodPost, staticTS.URL+"/v1/graphs/fig1/"+route, "{}")
		allow, present := resp.Header["Allow"]
		if resp.StatusCode != http.StatusMethodNotAllowed || !present || len(allow) != 1 || allow[0] != "" {
			t.Errorf("POST /%s on static graph: status %d allow %v, want 405 with explicitly empty Allow",
				route, resp.StatusCode, allow)
		}
	}
}
