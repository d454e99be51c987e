package service

// Serving-layer differential for incremental discovery: a server must
// serve byte-identical preview bodies to a cold reference (coldMirror)
// over the same graphs — on a static graph, and at every epoch of a write
// workload on the leader AND on a WAL-shipping follower. Plus the
// stale-view fallback, and the anytime contract: ?anytime=1 answers
// immediately, converges to the exact bytes, and surfaces convergence in
// the stats doc.

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"github.com/uta-db/previewtables/internal/core"
	"github.com/uta-db/previewtables/internal/fig1"
	"github.com/uta-db/previewtables/internal/score"
)

// incrementalReadURLs exercises every discovery mode the incremental
// path serves, across measure pairs, with and without tuples. The
// infeasible diverse distance pins error-certificate behavior (both
// servers must 422 identically, which readBodies tolerates).
var incrementalReadURLs = []string{
	"/v1/graphs/fig1/preview?k=2&n=3",
	"/v1/graphs/fig1/preview?k=2&n=3&tuples=3",
	"/v1/graphs/fig1/preview?k=2&n=4&mode=tight&d=2",
	"/v1/graphs/fig1/preview?k=2&n=4&mode=tight&d=2&key=walk&nonkey=entropy",
	"/v1/graphs/fig1/preview?k=3&n=6&mode=tight&d=3&tuples=2",
	"/v1/graphs/fig1/preview?k=2&n=4&mode=diverse&d=2",
	"/v1/graphs/fig1/preview?k=2&n=4&mode=diverse&d=2&key=coverage&nonkey=entropy",
	"/v1/graphs/fig1/preview?k=2&n=4&mode=diverse&d=9",
	"/v1/graphs/fig1/render?k=2&n=4&mode=tight&d=2&tuples=2&format=markdown",
}

// readBodies fetches urls from base, folding status, ETag and body into
// one comparable string. Unlike readSurfaces it accepts 422s — the
// infeasible constraint must fail identically on both servers.
func readBodies(t testing.TB, base string, urls []string) map[string]string {
	t.Helper()
	out := make(map[string]string, len(urls))
	for _, u := range urls {
		resp, err := http.Get(base + u)
		if err != nil {
			t.Fatal(err)
		}
		raw, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusUnprocessableEntity {
			t.Fatalf("GET %s: status %d body %s", u, resp.StatusCode, raw)
		}
		out[u] = fmt.Sprintf("%d\n%s\n%s", resp.StatusCode, resp.Header.Get("ETag"), raw)
	}
	return out
}

// coldMirror serves each request from a fresh NoCache registry over the
// same graphs as src: the same dynamic.Live for a live graph, the same
// entity graph for a static one. With no earlier discovery state, every
// answer is a cold core.New plus a full search — the bytes the serving
// stack produced before discovery became incremental.
func coldMirror(t testing.TB, src *Registry) *httptest.Server {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		reg := NewRegistry()
		for _, name := range src.Names() {
			gr, _ := src.Get(name)
			var err error
			if live := gr.Live(); live != nil {
				err = reg.AddLive(name, live)
			} else {
				err = reg.Add(name, gr.Entity())
			}
			if err != nil {
				t.Errorf("cold mirror of %q: %v", name, err)
				http.Error(w, err.Error(), http.StatusInternalServerError)
				return
			}
		}
		ref := New(reg)
		ref.NoCache = true
		ref.ServeHTTP(w, r)
	}))
	t.Cleanup(ts.Close)
	return ts
}

// compareCold requires every incrementalReadURLs response from mainBase
// to equal the cold reference's.
func compareCold(t *testing.T, what, mainBase, refBase string) {
	t.Helper()
	got := readBodies(t, mainBase, incrementalReadURLs)
	want := readBodies(t, refBase, incrementalReadURLs)
	for u, w := range want {
		if g := got[u]; g != w {
			t.Fatalf("%s: GET %s diverged from cold reference:\ncold:        %s\nincremental: %s", what, u, w, g)
		}
	}
}

// requireCertServes fails unless the graph's maintained state served some
// discovery from a certificate instead of a full search.
func requireCertServes(t *testing.T, reg *Registry, name string) {
	t.Helper()
	gr, ok := reg.Get(name)
	if !ok {
		t.Fatalf("%s not registered", name)
	}
	gr.maintMu.Lock()
	var certServes, fullSearches int64
	for _, m := range gr.maintained {
		certServes += m.CertServes()
		fullSearches += m.FullSearches()
	}
	gr.maintMu.Unlock()
	if certServes == 0 {
		t.Fatalf("no certificate serves on %s (full searches: %d): the maintained path never engaged", name, fullSearches)
	}
}

// TestIncrementalServingDifferential is the acceptance test for the
// one discovery path. On a static graph, two passes over every URL equal
// the cold reference, and certificates spare searches: for URLs that
// share a constraint, and for the second pass of the infeasible one,
// whose 422 the response cache does not keep. At every epoch of a write
// workload — including a structural batch (new type) — the maintained
// leader and a caught-up follower each serve bytes identical to their
// cold reference, and the maintained state demonstrably served from
// certificates rather than re-searching every request.
func TestIncrementalServingDifferential(t *testing.T) {
	t.Run("static", func(t *testing.T) {
		reg, ts := newTestServer(t)
		ref := coldMirror(t, reg)
		compareCold(t, "static", ts.URL, ref.URL)
		compareCold(t, "static (warm)", ts.URL, ref.URL)
		requireCertServes(t, reg, "fig1")
	})

	t.Run("live", func(t *testing.T) {
		root := t.TempDir()
		leader := startDurable(t, "", filepath.Join(root, "leader-wal"))
		leaderRef := coldMirror(t, leader.srv.reg)
		node := startFollowerNode(t, leader.ts.URL, "", "")
		followerRef := coldMirror(t, node.reg)

		compareCold(t, "leader epoch 0", leader.ts.URL, leaderRef.URL)
		for i, b := range crashBatches {
			postBatch(t, leader.ts, b.route, b.body)
			// Double-read: the second pass hits the epoch's certificates and
			// response cache and must not change a byte.
			compareCold(t, fmt.Sprintf("leader epoch %d", i+1), leader.ts.URL, leaderRef.URL)
			compareCold(t, fmt.Sprintf("leader epoch %d (warm)", i+1), leader.ts.URL, leaderRef.URL)
		}

		wantEpoch := uint64(len(crashBatches))
		if err := node.f.WaitCaughtUp(wantEpoch, 30*time.Second); err != nil {
			t.Fatal(err)
		}
		compareCold(t, "follower caught up", node.ts.URL, followerRef.URL)
		// Cross-node: a caught-up follower's maintained bodies must also
		// equal the leader's (replication byte-identity survives the
		// incremental path).
		compareCold(t, "leader vs follower", leader.ts.URL, node.ts.URL)
		requireCertServes(t, leader.srv.reg, "fig1")
	})
}

// TestStaleViewFallback: a request holding a view older than the graph's
// maintained state answers, exactly and anytime alike, as a fresh
// core.New over its own view's scores — and leaves the shared state where
// it was.
func TestStaleViewFallback(t *testing.T) {
	reg, _, srv, ts := newMutableServer(t)
	gr, _ := reg.Get("fig1")
	held := gr.view()
	postBatch(t, ts, "edges", `{"edges":[{"from":"Alex Proyas","rel":"Director","to":"Hancock"}]}`)
	// A read at the new epoch moves the coverage/coverage state past the
	// held view.
	if status, raw := get(t, ts.URL+"/v1/graphs/fig1/preview?k=2&n=4&mode=diverse&d=2"); status != http.StatusOK {
		t.Fatalf("read at the new epoch: status %d body %s", status, raw)
	}
	for _, q := range []string{"k=2&n=3", "k=2&n=4&mode=tight&d=2", "k=2&n=4&mode=diverse&d=2", "k=2&n=4&mode=diverse&d=9"} {
		vals, err := url.ParseQuery(q)
		if err != nil {
			t.Fatal(err)
		}
		p, err := parsePreviewParams(vals)
		if err != nil {
			t.Fatal(err)
		}
		if e, _ := gr.maintainedFor(held, p.Key, p.NonKey).Epoch(); e <= held.Epoch {
			t.Fatalf("%s: the maintained state is not past the held view's epoch %d", q, held.Epoch)
		}
		cold := core.New(held.Scores, core.Options{Key: p.Key, NonKey: p.NonKey})

		c := p.Constraint
		c.MaxCandidates = srv.SearchBudget
		want, wantErr := cold.Discover(c)
		got, err := srv.discover(held, p)
		if !errors.Is(err, wantErr) || !reflect.DeepEqual(got, want) {
			t.Fatalf("%s exact: got (%+v, %v), want (%+v, %v)", q, got, err, want, wantErr)
		}

		ac := p.Constraint
		ac.MaxCandidates = srv.AnytimeBudget
		want, _, wantErr = cold.AnytimeBest(ac)
		got, err = srv.anytimeDiscover(gr, held, p, false)
		if !errors.Is(err, wantErr) || !reflect.DeepEqual(got, want) {
			t.Fatalf("%s anytime: got (%+v, %v), want (%+v, %v)", q, got, err, want, wantErr)
		}
	}
	if e, _ := gr.maintainedFor(held, score.KeyCoverage, score.NonKeyCoverage).Epoch(); e <= held.Epoch {
		t.Fatal("the stale view rolled the shared state back to its epoch")
	}
}

// TestLaggingMeasurePairCatchesUp: a measure pair left unread for 100
// write batches catches up incrementally, on a leader and on a caught-up
// follower alike: its tight preview equals the cold reference, and no
// full search runs. Each batch re-adds an existing Genres edge, which
// dirties FILM and FILM GENRE but moves no coverage key score and no
// entropy, so the certificate taken at epoch 0 must still hold.
func TestLaggingMeasurePairCatchesUp(t *testing.T) {
	const (
		batches = 100
		u       = "/v1/graphs/fig1/preview?k=2&n=4&mode=tight&d=2&key=coverage&nonkey=entropy"
		edge    = `{"edges":[{"from":"Men in Black","rel":"Genres","to":"Action Film"}]}`
	)
	leader := startDurable(t, "", filepath.Join(t.TempDir(), "wal"))
	follower := startFollowerNode(t, leader.ts.URL, "", "")
	rows := []struct {
		name string
		reg  *Registry
		base string
	}{
		{"leader", leader.srv.reg, leader.ts.URL},
		{"follower", follower.reg, follower.ts.URL},
	}
	maintained := func(reg *Registry) *core.Maintained {
		gr, _ := reg.Get("fig1")
		gr.maintMu.Lock()
		defer gr.maintMu.Unlock()
		return gr.maintained[measureKey{key: score.KeyCoverage, nonKey: score.NonKeyEntropy}]
	}
	searched := make([]int64, len(rows))
	for i, r := range rows {
		readBodies(t, r.base, []string{u})
		if searched[i] = maintained(r.reg).FullSearches(); searched[i] == 0 {
			t.Fatalf("%s: the epoch-0 read ran no full search; nothing to carry", r.name)
		}
	}
	for i := 0; i < batches; i++ {
		postBatch(t, leader.ts, "edges", edge)
	}
	if err := follower.f.WaitCaughtUp(batches, 30*time.Second); err != nil {
		t.Fatal(err)
	}
	for i, r := range rows {
		ref := coldMirror(t, r.reg)
		if got, want := readBodies(t, r.base, []string{u})[u], readBodies(t, ref.URL, []string{u})[u]; got != want {
			t.Fatalf("%s: GET %s at epoch %d diverged from cold reference:\ncold:        %s\nincremental: %s", r.name, u, batches, want, got)
		}
		m := maintained(r.reg)
		if epoch, _ := m.Epoch(); epoch != batches {
			t.Fatalf("%s: the maintained state is at epoch %d, want %d", r.name, epoch, batches)
		}
		if n := m.FullSearches() - searched[i]; n != 0 {
			t.Fatalf("%s: caught up over %d batches but ran %d full searches", r.name, batches, n)
		}
	}
}

// anytimeResp is the slice of previewResponse the anytime tests decode.
type anytimeResp struct {
	Epoch     *uint64 `json:"epoch"`
	Converged *bool   `json:"converged"`
	Preview   struct {
		Score  float64         `json:"score"`
		Tables json.RawMessage `json:"tables"`
	} `json:"preview"`
}

func getAnytime(t *testing.T, url string) (int, anytimeResp, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	var ar anytimeResp
	if resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(raw, &ar); err != nil {
			t.Fatalf("GET %s: decoding %s: %v", url, raw, err)
		}
	}
	return resp.StatusCode, ar, string(raw)
}

// TestAnytimePreviewConverges: an ?anytime=1 request answers 200 with a
// converged marker; polling the same URL eventually yields converged
// true with exactly the exact endpoint's preview; and the stats doc
// reports the convergence watermark.
func TestAnytimePreviewConverges(t *testing.T) {
	leader := startDurable(t, "", filepath.Join(t.TempDir(), "wal"))
	ts := leader.ts

	const q = "/v1/graphs/fig1/preview?k=2&n=4&mode=diverse&d=2"
	status, exact, _ := getAnytime(t, ts.URL+q)
	if status != http.StatusOK {
		t.Fatalf("exact preview: status %d", status)
	}

	deadline := time.Now().Add(10 * time.Second)
	var last anytimeResp
	for {
		st, ar, raw := getAnytime(t, ts.URL+q+"&anytime=1")
		if st != http.StatusOK {
			t.Fatalf("anytime preview: status %d body %s", st, raw)
		}
		if ar.Converged == nil {
			t.Fatalf("anytime preview carries no converged field: %s", raw)
		}
		last = ar
		if *ar.Converged {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("anytime preview never converged")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if last.Preview.Score != exact.Preview.Score || string(last.Preview.Tables) != string(exact.Preview.Tables) {
		t.Fatalf("converged anytime preview differs from exact:\nanytime: %.4f %s\nexact:   %.4f %s",
			last.Preview.Score, last.Preview.Tables, exact.Preview.Score, exact.Preview.Tables)
	}

	// Stats now reports convergence at the current epoch.
	resp, err := http.Get(ts.URL + "/v1/graphs/fig1/stats")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	var stats struct {
		Epoch   *uint64 `json:"epoch"`
		Anytime *struct {
			Converged    bool   `json:"converged"`
			RefinedEpoch uint64 `json:"refined_epoch"`
		} `json:"anytime"`
	}
	if err := json.Unmarshal(raw, &stats); err != nil {
		t.Fatal(err)
	}
	if stats.Anytime == nil {
		t.Fatalf("stats doc missing anytime block after anytime requests: %s", raw)
	}
	if !stats.Anytime.Converged {
		t.Fatalf("stats doc reports unconverged after refinement: %s", raw)
	}
	if stats.Epoch != nil && stats.Anytime.RefinedEpoch != *stats.Epoch {
		t.Fatalf("refined_epoch %d != epoch %d: %s", stats.Anytime.RefinedEpoch, *stats.Epoch, raw)
	}

	// A write invalidates convergence: the next anytime answer at the
	// new epoch starts unconverged again (or re-certifies, but the stats
	// doc must track whichever happened, not report stale convergence).
	postBatch(t, ts, "edges",
		`{"edges":[{"from":"Hancock","rel":"Genres","from_type":"`+fig1.Film+`","to_type":"`+fig1.FilmGenre+`","to":"Science Fiction"}]}`)
	resp2, err := http.Get(ts.URL + "/v1/graphs/fig1/stats")
	if err != nil {
		t.Fatal(err)
	}
	raw2, _ := io.ReadAll(resp2.Body)
	resp2.Body.Close()
	if err := json.Unmarshal(raw2, &stats); err != nil {
		t.Fatal(err)
	}
	if stats.Anytime == nil {
		t.Fatalf("stats doc lost its anytime block after a write: %s", raw2)
	}
	if stats.Epoch != nil && stats.Anytime.RefinedEpoch >= *stats.Epoch && !stats.Anytime.Converged {
		t.Fatalf("stats doc inconsistent: refined %d >= epoch %d but converged=false", stats.Anytime.RefinedEpoch, *stats.Epoch)
	}
}

// TestAnytimeTiedPreviewConverges: on fig1 under coverage/coverage, the
// winner of k=2 n=4 tight d=2 ties its runner-up. Its anytime preview
// still converges to the exact preview once the background search has
// run, and polling on after that runs no further search.
func TestAnytimeTiedPreviewConverges(t *testing.T) {
	reg, ts := newTestServer(t)
	const q = "/v1/graphs/fig1/preview?k=2&n=4&mode=tight&d=2&key=coverage&nonkey=coverage"
	status, exact, _ := getAnytime(t, ts.URL+q)
	if status != http.StatusOK {
		t.Fatalf("exact preview: status %d", status)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		st, ar, raw := getAnytime(t, ts.URL+q+"&anytime=1")
		if st != http.StatusOK || ar.Converged == nil {
			t.Fatalf("anytime preview: status %d body %s", st, raw)
		}
		if *ar.Converged {
			if ar.Preview.Score != exact.Preview.Score || string(ar.Preview.Tables) != string(exact.Preview.Tables) {
				t.Fatalf("converged anytime preview differs from exact:\nanytime: %s\nexact:   %.4f %s", raw, exact.Preview.Score, exact.Preview.Tables)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("the tied anytime preview never converged")
		}
		time.Sleep(5 * time.Millisecond)
	}
	gr, _ := reg.Get("fig1")
	m := gr.maintainedFor(gr.view(), score.KeyCoverage, score.NonKeyCoverage)
	searched := m.FullSearches()
	for i := 0; i < 5; i++ {
		if _, ar, raw := getAnytime(t, ts.URL+q+"&anytime=1&tuples="+fmt.Sprint(i)); ar.Converged == nil || !*ar.Converged {
			t.Fatalf("poll %d after convergence: %s", i, raw)
		}
	}
	if n := m.FullSearches() - searched; n != 0 {
		t.Fatalf("%d full searches after convergence, want 0", n)
	}
}

// TestAnytimeBudgetBounded: a tiny anytime budget still answers 200
// with a valid best-so-far preview (budget 2 scores fig1's first
// feasible pair before exhausting), deterministically; a budget too
// small to score anything fails 422 like an exhausted exact search.
func TestAnytimeBudgetBounded(t *testing.T) {
	reg, _ := newTestServer(t)

	// A second server with a tiny anytime budget over the same registry.
	tiny := New(reg)
	tiny.AnytimeBudget = 2
	tiny.NoCache = true // every request recomputes; determinism is real, not cached
	tinyTS := httptest.NewServer(tiny)
	t.Cleanup(tinyTS.Close)

	const q = "/v1/graphs/fig1/preview?k=2&n=4&mode=diverse&d=2&anytime=1"
	st, ar, raw := getAnytime(t, tinyTS.URL+q)
	if st != http.StatusOK {
		t.Fatalf("budget-2 anytime: status %d body %s", st, raw)
	}
	if ar.Preview.Score <= 0 {
		t.Fatalf("budget-2 anytime returned empty preview: %s", raw)
	}
	st2, ar2, raw2 := getAnytime(t, tinyTS.URL+q)
	if st2 != http.StatusOK || ar2.Preview.Score != ar.Preview.Score || string(ar2.Preview.Tables) != string(ar.Preview.Tables) {
		t.Fatalf("budget-2 anytime not deterministic:\nfirst:  %s\nsecond: %s", raw, raw2)
	}

	// Fresh registry: sharing one would let the tiny server's background
	// refinement certify the constraint and turn the starved request
	// into an exact 200.
	starvedReg, _ := newTestServer(t)
	starved := New(starvedReg)
	starved.AnytimeBudget = 1
	starvedTS := httptest.NewServer(starved)
	t.Cleanup(starvedTS.Close)
	if st, _, raw := getAnytime(t, starvedTS.URL+q); st != http.StatusUnprocessableEntity {
		t.Fatalf("budget-1 anytime: status %d body %s, want 422 (budget exhausted before any feasible subset)", st, raw)
	}
}

// TestAnytimeParamValidation: the anytime parameter parses strictly.
func TestAnytimeParamValidation(t *testing.T) {
	_, ts := newTestServer(t)
	for _, tc := range []struct {
		q    string
		want int
	}{
		{"anytime=1", http.StatusOK},
		{"anytime=true", http.StatusOK},
		{"anytime=0", http.StatusOK},
		{"anytime=false", http.StatusOK},
		{"anytime=banana", http.StatusBadRequest},
	} {
		resp, err := http.Get(ts.URL + "/v1/graphs/fig1/preview?k=2&n=3&" + tc.q)
		if err != nil {
			t.Fatal(err)
		}
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Fatalf("%s: status %d want %d (body %s)", tc.q, resp.StatusCode, tc.want, raw)
		}
		if tc.want == http.StatusOK && strings.Contains(tc.q, "anytime=1") && !strings.Contains(string(raw), `"converged"`) {
			t.Fatalf("%s: 200 body missing converged field: %s", tc.q, raw)
		}
	}
}
