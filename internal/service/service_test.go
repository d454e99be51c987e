package service

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"github.com/uta-db/previewtables/internal/core"
	"github.com/uta-db/previewtables/internal/fig1"
	"github.com/uta-db/previewtables/internal/graph"
	"github.com/uta-db/previewtables/internal/render"
	"github.com/uta-db/previewtables/internal/score"
	"github.com/uta-db/previewtables/internal/wire"
)

// newTestServer registers the paper's Fig. 1 graph as "fig1".
func newTestServer(t testing.TB) (*Registry, *httptest.Server) {
	t.Helper()
	reg := NewRegistry()
	if err := reg.Add("fig1", fig1.Graph()); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(New(reg))
	t.Cleanup(ts.Close)
	return reg, ts
}

// get fetches a URL and returns status and body.
func get(t testing.TB, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, body
}

func getJSON(t testing.TB, url string, v any) int {
	t.Helper()
	status, body := get(t, url)
	if err := json.Unmarshal(body, v); err != nil {
		t.Fatalf("decoding %s response %q: %v", url, body, err)
	}
	return status
}

func TestHealthz(t *testing.T) {
	_, ts := newTestServer(t)
	status, body := get(t, ts.URL+"/healthz")
	if status != http.StatusOK || strings.TrimSpace(string(body)) != "ok" {
		t.Fatalf("healthz: status %d body %q", status, body)
	}
}

func TestListGraphs(t *testing.T) {
	reg, ts := newTestServer(t)
	if err := reg.Add("also", fig1.Graph()); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Graphs []struct {
			Name     string `json:"name"`
			Entities int    `json:"entities"`
			Types    int    `json:"types"`
		} `json:"graphs"`
	}
	if status := getJSON(t, ts.URL+"/v1/graphs", &doc); status != http.StatusOK {
		t.Fatalf("list: status %d", status)
	}
	if len(doc.Graphs) != 2 || doc.Graphs[0].Name != "also" || doc.Graphs[1].Name != "fig1" {
		t.Fatalf("list: got %+v, want sorted [also fig1]", doc.Graphs)
	}
	want := fig1.Graph().Stats()
	if doc.Graphs[1].Entities != want.Entities || doc.Graphs[1].Types != want.Types {
		t.Fatalf("list stats: got %+v, want %+v", doc.Graphs[1], want)
	}
}

func TestStats(t *testing.T) {
	_, ts := newTestServer(t)
	var doc struct {
		Name     string `json:"name"`
		Entities int    `json:"entities"`
		Edges    int    `json:"edges"`
		Types    int    `json:"types"`
		RelTypes int    `json:"rel_types"`
	}
	if status := getJSON(t, ts.URL+"/v1/graphs/fig1/stats", &doc); status != http.StatusOK {
		t.Fatalf("stats: status %d", status)
	}
	want := fig1.Graph().Stats()
	if doc.Name != "fig1" || doc.Entities != want.Entities || doc.Edges != want.Edges ||
		doc.Types != want.Types || doc.RelTypes != want.RelTypes {
		t.Fatalf("stats: got %+v, want %+v", doc, want)
	}
}

// TestPreviewMatchesDirectDiscovery cross-checks the served preview
// against a Discoverer built by hand from the same graph and measures.
func TestPreviewMatchesDirectDiscovery(t *testing.T) {
	_, ts := newTestServer(t)
	var doc struct {
		Graph      string `json:"graph"`
		Constraint struct {
			K    int    `json:"k"`
			N    int    `json:"n"`
			Mode string `json:"mode"`
		} `json:"constraint"`
		Preview struct {
			Score  float64 `json:"score"`
			Tables []struct {
				Key     string `json:"key"`
				Columns []struct {
					Name string `json:"name"`
				} `json:"columns"`
				Tuples []struct {
					Key    string     `json:"key"`
					Values [][]string `json:"values"`
				} `json:"tuples"`
			} `json:"tables"`
		} `json:"preview"`
	}
	url := ts.URL + "/v1/graphs/fig1/preview?k=2&n=3&tuples=4"
	if status := getJSON(t, url, &doc); status != http.StatusOK {
		t.Fatalf("preview: status %d", status)
	}
	if doc.Graph != "fig1" || doc.Constraint.K != 2 || doc.Constraint.N != 3 || doc.Constraint.Mode != "concise" {
		t.Fatalf("preview echo: got %+v", doc)
	}

	g := fig1.Graph()
	set := score.Compute(g, score.DefaultWalkOptions())
	d := core.New(set, core.Options{Key: score.KeyCoverage, NonKey: score.NonKeyCoverage})
	want, err := d.Discover(core.Constraint{K: 2, N: 3})
	if err != nil {
		t.Fatal(err)
	}
	if doc.Preview.Score != want.Score {
		t.Fatalf("preview score: got %g, want %g", doc.Preview.Score, want.Score)
	}
	if len(doc.Preview.Tables) != len(want.Tables) {
		t.Fatalf("preview tables: got %d, want %d", len(doc.Preview.Tables), len(want.Tables))
	}
	for i, wt := range want.Tables {
		if got := doc.Preview.Tables[i].Key; got != g.TypeName(wt.Key) {
			t.Errorf("table %d key: got %q, want %q", i, got, g.TypeName(wt.Key))
		}
		if got, want := len(doc.Preview.Tables[i].Columns), len(wt.NonKeys); got != want {
			t.Errorf("table %d columns: got %d, want %d", i, got, want)
		}
		if len(doc.Preview.Tables[i].Tuples) == 0 {
			t.Errorf("table %d: no tuples despite tuples=4", i)
		}
	}
}

// TestPreviewDeterministic ensures identical requests return identical
// previews (tuple sampling is reseeded per request); only the timing
// field may vary.
func TestPreviewDeterministic(t *testing.T) {
	_, ts := newTestServer(t)
	url := ts.URL + "/v1/graphs/fig1/preview?k=2&n=3&tuples=3"
	canonical := func(raw []byte) string {
		var m map[string]json.RawMessage
		if err := json.Unmarshal(raw, &m); err != nil {
			t.Fatalf("decoding %q: %v", raw, err)
		}
		delete(m, "elapsed_ms")
		out, err := json.Marshal(m)
		if err != nil {
			t.Fatal(err)
		}
		return string(out)
	}
	_, a := get(t, url)
	_, b := get(t, url)
	if canonical(a) != canonical(b) {
		t.Fatalf("preview not deterministic:\n%s\nvs\n%s", a, b)
	}
}

func TestPreviewTightMode(t *testing.T) {
	_, ts := newTestServer(t)
	var doc struct {
		Constraint struct {
			Mode string `json:"mode"`
			D    int    `json:"d"`
		} `json:"constraint"`
		Preview struct {
			Tables []struct{} `json:"tables"`
		} `json:"preview"`
	}
	url := ts.URL + "/v1/graphs/fig1/preview?k=2&n=2&mode=tight&d=1&key=walk&nonkey=entropy"
	if status := getJSON(t, url, &doc); status != http.StatusOK {
		t.Fatalf("tight preview: status %d", status)
	}
	if doc.Constraint.Mode != "tight" || doc.Constraint.D != 1 || len(doc.Preview.Tables) != 2 {
		t.Fatalf("tight preview: got %+v", doc)
	}
}

// TestConstraintEcho pins the d echo: present (even when 0) for
// tight/diverse, absent for concise.
func TestConstraintEcho(t *testing.T) {
	_, ts := newTestServer(t)
	var doc struct {
		Constraint map[string]json.RawMessage `json:"constraint"`
	}
	if status := getJSON(t, ts.URL+"/v1/graphs/fig1/preview?k=1&n=1&mode=tight&d=0", &doc); status != http.StatusOK {
		t.Fatalf("tight d=0: status %d", status)
	}
	if d, ok := doc.Constraint["d"]; !ok || string(d) != "0" {
		t.Fatalf("tight d=0 echo: got %v, want d present as 0", doc.Constraint)
	}
	doc.Constraint = nil // Unmarshal merges into a non-nil map
	if status := getJSON(t, ts.URL+"/v1/graphs/fig1/preview?k=1&n=1", &doc); status != http.StatusOK {
		t.Fatalf("concise: status %d", status)
	}
	if _, ok := doc.Constraint["d"]; ok {
		t.Fatalf("concise echo carries meaningless d: %v", doc.Constraint)
	}
}

// TestPreviewResponseAppendJSON: the hand-written preview body is the
// body encoding/json writes, for every combination of the optional
// fields (epoch nil, 0 and n; d nil and 0; converged nil, false and
// true), and a score JSON cannot hold fails in both.
func TestPreviewResponseAppendJSON(t *testing.T) {
	g := fig1.Graph()
	d := core.New(score.Compute(g, score.DefaultWalkOptions()), core.Options{Key: score.KeyCoverage, NonKey: score.NonKeyCoverage})
	pv, err := d.Discover(core.Constraint{K: 2, N: 4})
	if err != nil {
		t.Fatal(err)
	}
	doc := render.PreviewDocument(g, &pv, render.Options{Tuples: 3})
	zero, seven, dZero := uint64(0), uint64(7), 0
	no, yes := false, true
	for _, epoch := range []*uint64{nil, &zero, &seven} {
		for _, dd := range []*int{nil, &dZero} {
			for _, conv := range []*bool{nil, &no, &yes} {
				resp := previewResponse{
					Graph:      "fig<1>&\xe2\x80\xa8\"",
					Epoch:      epoch,
					Constraint: constraintDoc{K: 2, N: 4, Mode: "tight", D: dd},
					Key:        "walk",
					NonKey:     "entropy",
					Preview:    doc,
					Converged:  conv,
				}
				want, err := wire.MarshalJSON(resp)
				if err != nil {
					t.Fatal(err)
				}
				got, err := resp.appendJSON(nil)
				if err != nil || string(got) != string(want) {
					t.Errorf("epoch %v, d %v, converged %v: appendJSON = %q, %v; want %q", epoch, dd, conv, got, err, want)
				}
			}
		}
	}
	bad := previewResponse{Preview: doc}
	bad.Preview.Tables = append([]render.TableDoc(nil), doc.Tables...)
	bad.Preview.Tables[1].KeyScore = math.NaN()
	_, want := wire.MarshalJSON(bad)
	if _, err := bad.appendJSON(nil); want == nil || err == nil || err.Error() != want.Error() {
		t.Errorf("NaN key score: appendJSON error %v, encoding/json error %v", err, want)
	}
}

func TestErrors(t *testing.T) {
	_, ts := newTestServer(t)
	cases := []struct {
		name   string
		url    string
		status int
	}{
		{"unknown graph", "/v1/graphs/nope/stats", http.StatusNotFound},
		{"unknown action", "/v1/graphs/fig1/nope", http.StatusNotFound},
		{"unknown route", "/v2/nope", http.StatusNotFound},
		{"bare graph path", "/v1/graphs/fig1", http.StatusNotFound},
		{"bad k", "/v1/graphs/fig1/preview?k=0", http.StatusBadRequest},
		{"n below k", "/v1/graphs/fig1/preview?k=3&n=2", http.StatusBadRequest},
		{"bad int", "/v1/graphs/fig1/preview?k=two", http.StatusBadRequest},
		{"bad mode", "/v1/graphs/fig1/preview?mode=loose", http.StatusBadRequest},
		{"bad key measure", "/v1/graphs/fig1/preview?key=pagerank", http.StatusBadRequest},
		{"bad nonkey measure", "/v1/graphs/fig1/preview?nonkey=gini", http.StatusBadRequest},
		{"tuples out of range", "/v1/graphs/fig1/preview?tuples=100000", http.StatusBadRequest},
		{"k above cap", "/v1/graphs/fig1/preview?k=1000&n=2000", http.StatusBadRequest},
		{"n above cap", "/v1/graphs/fig1/preview?k=2&n=2000000000", http.StatusBadRequest},
		{"bad format", "/v1/graphs/fig1/render?format=pdf", http.StatusBadRequest},
		{"no preview", "/v1/graphs/fig1/preview?k=50&n=50", http.StatusUnprocessableEntity},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var doc struct {
				Error string `json:"error"`
			}
			status := getJSON(t, ts.URL+tc.url, &doc)
			if status != tc.status {
				t.Fatalf("%s: status %d, want %d", tc.url, status, tc.status)
			}
			if doc.Error == "" {
				t.Fatalf("%s: empty error body", tc.url)
			}
		})
	}
}

func TestMethodNotAllowed(t *testing.T) {
	_, ts := newTestServer(t)
	resp, err := http.Post(ts.URL+"/v1/graphs", "application/json", strings.NewReader("{}"))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("POST: status %d, want 405", resp.StatusCode)
	}
	if allow := resp.Header.Get("Allow"); !strings.Contains(allow, "GET") {
		t.Fatalf("POST: Allow header %q", allow)
	}
}

func TestRenderText(t *testing.T) {
	_, ts := newTestServer(t)
	status, body := get(t, ts.URL+"/v1/graphs/fig1/render?k=2&n=3&tuples=4")
	if status != http.StatusOK {
		t.Fatalf("render: status %d body %q", status, body)
	}
	out := string(body)
	if !strings.Contains(out, "preview: 2 tables") || !strings.Contains(out, fig1.Film) {
		t.Fatalf("render text missing expected content:\n%s", out)
	}
}

func TestRenderMarkdown(t *testing.T) {
	_, ts := newTestServer(t)
	status, body := get(t, ts.URL+"/v1/graphs/fig1/render?k=1&n=2&tuples=2&format=markdown")
	if status != http.StatusOK {
		t.Fatalf("render markdown: status %d body %q", status, body)
	}
	out := string(body)
	if !strings.Contains(out, "| **"+fig1.Film+"** |") || !strings.Contains(out, "|---|") {
		t.Fatalf("render markdown missing expected content:\n%s", out)
	}
}

// TestSearchBudgetExceeded pins the HTTP mapping of core.ErrSearchBudget:
// a degenerate diverse request whose candidate space exceeds the server's
// budget fails fast with 422 instead of pinning a CPU.
func TestSearchBudgetExceeded(t *testing.T) {
	reg := NewRegistry()
	if err := reg.Add("fig1", fig1.Graph()); err != nil {
		t.Fatal(err)
	}
	srv := New(reg)
	srv.SearchBudget = 2 // starve it; fig1 is small enough to finish otherwise
	ts := httptest.NewServer(srv)
	defer ts.Close()
	var doc struct {
		Error string `json:"error"`
	}
	status := getJSON(t, ts.URL+"/v1/graphs/fig1/preview?k=3&n=3&mode=diverse&d=0", &doc)
	if status != http.StatusUnprocessableEntity {
		t.Fatalf("budget exceeded: status %d, want 422", status)
	}
	if !strings.Contains(doc.Error, "budget") {
		t.Fatalf("budget exceeded: error %q does not mention the budget", doc.Error)
	}
}

// TestConcurrentRequestsShareOneCompute is the cache-concurrency test:
// many goroutines race preview and render requests across measure pairs
// over the one score set Registry.Add computed. The tight and diverse
// URLs come two per constraint, so distinct response-cache keys race into
// one maintained search flight and its certificate.
func TestConcurrentRequestsShareOneCompute(t *testing.T) {
	_, ts := newTestServer(t)
	urls := []string{
		ts.URL + "/v1/graphs/fig1/preview?k=2&n=3",
		ts.URL + "/v1/graphs/fig1/preview?k=2&n=3&key=walk",
		ts.URL + "/v1/graphs/fig1/preview?k=2&n=3&nonkey=entropy",
		ts.URL + "/v1/graphs/fig1/render?k=1&n=1",
		ts.URL + "/v1/graphs/fig1/preview?k=2&n=4&mode=tight&d=2",
		ts.URL + "/v1/graphs/fig1/render?k=2&n=4&mode=tight&d=2",
		ts.URL + "/v1/graphs/fig1/preview?k=2&n=4&mode=diverse&d=2",
		ts.URL + "/v1/graphs/fig1/preview?k=2&n=4&mode=diverse&d=2&tuples=2",
	}
	const workers = 16
	var wg sync.WaitGroup
	errs := make(chan error, workers*len(urls))
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, u := range urls {
				resp, err := http.Get(u)
				if err != nil {
					errs <- err
					continue
				}
				if resp.StatusCode != http.StatusOK {
					errs <- fmt.Errorf("%s: status %d", u, resp.StatusCode)
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestDiscovererIdentity pins the discovery-state contract at the
// registry level: a static graph's state for one measure pair is one
// core.Maintained, built once at epoch 0 and handed to every request;
// distinct pairs get distinct states, and all of them share one score set.
func TestDiscovererIdentity(t *testing.T) {
	reg := NewRegistry()
	if err := reg.Add("g", fig1.Graph()); err != nil {
		t.Fatal(err)
	}
	gr, ok := reg.Get("g")
	if !ok {
		t.Fatal("registered graph not found")
	}
	v := gr.view()
	a := gr.maintainedFor(v, score.KeyCoverage, score.NonKeyCoverage)
	b := gr.maintainedFor(v, score.KeyCoverage, score.NonKeyCoverage)
	c := gr.maintainedFor(v, score.KeyRandomWalk, score.NonKeyCoverage)
	if a == nil || a != b {
		t.Error("same measure pair returned distinct maintained states")
	}
	if a == c {
		t.Error("distinct measure pairs shared a maintained state")
	}
	for _, m := range []*core.Maintained{a, c} {
		if e, ok := m.Epoch(); !ok || e != 0 {
			t.Errorf("static graph's maintained state at epoch %d (initialized %t), want 0", e, ok)
		}
	}
}

func TestRegistryAdd(t *testing.T) {
	reg := NewRegistry()
	if err := reg.Add("g", fig1.Graph()); err != nil {
		t.Fatal(err)
	}
	if err := reg.Add("g", fig1.Graph()); err == nil {
		t.Error("duplicate Add succeeded")
	}
	if err := reg.Add("", fig1.Graph()); err == nil {
		t.Error("empty-name Add succeeded")
	}
	if err := reg.Add("a/b", fig1.Graph()); err == nil {
		t.Error("Add with '/' in name succeeded")
	}
	for _, name := range []string{".", ".."} {
		if err := reg.Add(name, fig1.Graph()); err == nil {
			t.Errorf("Add named %q succeeded", name)
		}
	}
	if err := reg.Add("nil", nil); err == nil {
		t.Error("nil-graph Add succeeded")
	}
	if _, ok := reg.Get("missing"); ok {
		t.Error("Get returned a graph never registered")
	}
}

// TestAddComputesScores: Registry.Add returns with the view's scores in
// place, score.Compute's for the graph bit for bit, and a rejected name
// registers nothing.
func TestAddComputesScores(t *testing.T) {
	reg := NewRegistry()
	g := fig1.Graph()
	if err := reg.Add("g", g); err != nil {
		t.Fatal(err)
	}
	gr, _ := reg.Get("g")
	v := gr.view()
	if v.Scores == nil || v.Epoch != 0 || v.mutable || v.Frozen != g {
		t.Fatalf("Add registered a view without its scores: %+v", v)
	}
	want := score.Compute(g, score.DefaultWalkOptions())
	for ty := 0; ty < g.NumTypes(); ty++ {
		id := graph.TypeID(ty)
		for _, km := range []score.KeyMeasure{score.KeyCoverage, score.KeyRandomWalk} {
			if got, w := v.Scores.Key(km, id), want.Key(km, id); got != w {
				t.Fatalf("type %d: key score %v, want %v", ty, got, w)
			}
		}
		for i := range g.Schema().Incident(id) {
			for _, nm := range []score.NonKeyMeasure{score.NonKeyCoverage, score.NonKeyEntropy} {
				if got, w := v.Scores.NonKey(nm, id, i), want.NonKey(nm, id, i); got != w {
					t.Fatalf("type %d, incidence %d: non-key score %v, want %v", ty, i, got, w)
				}
			}
		}
	}
	if err := reg.Add("a/b", g); err == nil || len(reg.Names()) != 1 {
		t.Fatalf("Add with a bad name: %v, registered %v", err, reg.Names())
	}
}

// BenchmarkPreviewCacheHit measures the steady-state preview path: the
// scores were computed by Add and the Discoverer is warm, so each request
// is parse + discover + encode.
func BenchmarkPreviewCacheHit(b *testing.B) {
	reg := NewRegistry()
	if err := reg.Add("fig1", fig1.Graph()); err != nil {
		b.Fatal(err)
	}
	srv := New(reg)
	warm := httptest.NewRequest(http.MethodGet, "/v1/graphs/fig1/preview?k=2&n=3&tuples=4", nil)
	srv.ServeHTTP(httptest.NewRecorder(), warm)
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			req := httptest.NewRequest(http.MethodGet, "/v1/graphs/fig1/preview?k=2&n=3&tuples=4", nil)
			rec := httptest.NewRecorder()
			srv.ServeHTTP(rec, req)
			if rec.Code != http.StatusOK {
				panic(fmt.Sprintf("status %d: %s", rec.Code, rec.Body))
			}
		}
	})
}

// BenchmarkPreviewCacheMiss is the contrast case: a fresh registry per
// iteration pays the full score.Compute precomputation.
func BenchmarkPreviewCacheMiss(b *testing.B) {
	g := fig1.Graph()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		reg := NewRegistry()
		if err := reg.Add("fig1", g); err != nil {
			b.Fatal(err)
		}
		req := httptest.NewRequest(http.MethodGet, "/v1/graphs/fig1/preview?k=2&n=3&tuples=4", nil)
		rec := httptest.NewRecorder()
		New(reg).ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			b.Fatalf("status %d: %s", rec.Code, rec.Body)
		}
	}
}
