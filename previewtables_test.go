package previewtables_test

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"

	previewtables "github.com/uta-db/previewtables"
	"github.com/uta-db/previewtables/internal/freebase"
	"github.com/uta-db/previewtables/internal/service"
)

// buildFig1 reconstructs the paper's Fig. 1 graph through the public API.
func buildFig1(t *testing.T) *previewtables.EntityGraph {
	t.Helper()
	var b previewtables.Builder
	film := b.Type("FILM")
	actor := b.Type("FILM ACTOR")
	director := b.Type("FILM DIRECTOR")
	producer := b.Type("FILM PRODUCER")
	genre := b.Type("FILM GENRE")
	award := b.Type("AWARD")

	rActor := b.RelType("Actor", actor, film)
	rDirector := b.RelType("Director", director, film)
	rGenres := b.RelType("Genres", film, genre)
	rProducer := b.RelType("Producer", producer, film)
	rExec := b.RelType("Executive Producer", producer, film)
	rAwardA := b.RelType("Award Winners", actor, award)
	rAwardD := b.RelType("Award Winners", director, award)

	mib := b.Entity("Men in Black")
	mib2 := b.Entity("Men in Black II")
	hancock := b.Entity("Hancock")
	irobot := b.Entity("I, Robot")
	will := b.Entity("Will Smith")
	tommy := b.Entity("Tommy Lee Jones")
	barry := b.Entity("Barry Sonnenfeld")
	peter := b.Entity("Peter Berg")
	alex := b.Entity("Alex Proyas")
	action := b.Entity("Action Film")
	scifi := b.Entity("Science Fiction")
	saturn := b.Entity("Saturn Award")
	academy := b.Entity("Academy Award")
	razzie := b.Entity("Razzie Award")

	for _, e := range [][2]previewtables.EntityID{{will, mib}, {will, mib2}, {will, hancock}, {will, irobot}, {tommy, mib}, {tommy, mib2}} {
		b.Edge(e[0], e[1], rActor)
	}
	b.Edge(barry, mib, rDirector)
	b.Edge(barry, mib2, rDirector)
	b.Edge(peter, hancock, rDirector)
	b.Edge(alex, irobot, rDirector)
	b.Edge(mib, action, rGenres)
	b.Edge(mib, scifi, rGenres)
	b.Edge(mib2, action, rGenres)
	b.Edge(mib2, scifi, rGenres)
	b.Edge(irobot, action, rGenres)
	b.Edge(will, hancock, rProducer)
	b.Edge(will, mib2, rProducer)
	b.Edge(will, irobot, rExec)
	b.Edge(will, saturn, rAwardA)
	b.Edge(tommy, academy, rAwardA)
	b.Edge(barry, razzie, rAwardD)

	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestDiscoverPublicAPI(t *testing.T) {
	g := buildFig1(t)
	p, err := previewtables.Discover(g, previewtables.Constraint{K: 2, N: 6})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(p.Score-84) > 1e-9 {
		t.Errorf("score = %v, want 84 (paper's Sec. 4 example)", p.Score)
	}
}

func TestDiscovererAlgorithmsAgree(t *testing.T) {
	g := buildFig1(t)
	d := previewtables.NewDiscoverer(g, previewtables.KeyCoverage, previewtables.NonKeyCoverage)
	c := previewtables.Constraint{K: 2, N: 6, Mode: previewtables.Diverse, D: 2}
	bf, err := d.BruteForce(c)
	if err != nil {
		t.Fatal(err)
	}
	ap, err := d.Apriori(c)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(bf.Score-ap.Score) > 1e-9 {
		t.Errorf("BF %v != Apriori %v", bf.Score, ap.Score)
	}
	if math.Abs(bf.Score-78) > 1e-9 {
		t.Errorf("diverse score = %v, want 78", bf.Score)
	}
}

func TestErrNoPreviewExposed(t *testing.T) {
	g := buildFig1(t)
	d := previewtables.NewDiscoverer(g, previewtables.KeyCoverage, previewtables.NonKeyCoverage)
	_, err := d.Apriori(previewtables.Constraint{K: 2, N: 4, Mode: previewtables.Diverse, D: 9})
	if !errors.Is(err, previewtables.ErrNoPreview) {
		t.Errorf("err = %v, want ErrNoPreview", err)
	}
}

func TestSuggestions(t *testing.T) {
	g := buildFig1(t)
	d := previewtables.NewDiscoverer(g, previewtables.KeyCoverage, previewtables.NonKeyCoverage)
	c := d.SuggestSize(12)
	if err := c.Validate(); err != nil {
		t.Errorf("suggested constraint invalid: %v", err)
	}
	sug := d.SuggestDistance()
	if sug.TightD < 1 || sug.DiverseD <= sug.TightD {
		t.Errorf("distance suggestion = %+v", sug)
	}
}

func TestRenderAndTuples(t *testing.T) {
	g := buildFig1(t)
	p, err := previewtables.Discover(g, previewtables.Constraint{K: 2, N: 6})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := previewtables.Render(&buf, g, &p, 3); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "FILM") {
		t.Error("rendered output missing FILM")
	}
	tuples := previewtables.SampleTuples(g, &p.Tables[0], 2, nil)
	if len(tuples) != 2 {
		t.Errorf("sampled %d tuples, want 2", len(tuples))
	}
	rep := previewtables.RepresentativeTuples(g, &p.Tables[0], 2)
	if len(rep) != 2 {
		t.Errorf("representative %d tuples, want 2", len(rep))
	}
	buf.Reset()
	if err := previewtables.RenderMarkdown(&buf, g, &p.Tables[0], 2); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "|") {
		t.Error("markdown output missing pipes")
	}
	buf.Reset()
	if err := previewtables.SchemaDOT(&buf, g.Schema()); err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	if err := previewtables.PreviewDOT(&buf, g.Schema(), &p); err != nil {
		t.Fatal(err)
	}
}

func TestTriplesRoundTripPublic(t *testing.T) {
	g := buildFig1(t)
	var buf bytes.Buffer
	if err := previewtables.WriteTriples(&buf, g); err != nil {
		t.Fatal(err)
	}
	g2, err := previewtables.ReadTriples(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if g.Stats() != g2.Stats() {
		t.Errorf("round trip: %v vs %v", g.Stats(), g2.Stats())
	}
}

func TestNTriplesPublic(t *testing.T) {
	src := `<a> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <T> .
<b> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <T> .
<a> <rel> <b> .
<a> <height> "180" .`
	g, err := previewtables.ReadNTriples(strings.NewReader(src), previewtables.NTriplesOptions{DropLiterals: true})
	if err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() != 1 {
		t.Errorf("edges = %d, want 1 (literal dropped)", g.NumEdges())
	}
}

func TestSnapshotPublic(t *testing.T) {
	g := buildFig1(t)
	path := filepath.Join(t.TempDir(), "g.egpt")
	if err := previewtables.SaveSnapshot(path, g); err != nil {
		t.Fatal(err)
	}
	g2, err := previewtables.LoadSnapshot(path)
	if err != nil {
		t.Fatal(err)
	}
	if g.Stats() != g2.Stats() {
		t.Errorf("snapshot round trip: %v vs %v", g.Stats(), g2.Stats())
	}
}

func TestAllOptimalPublic(t *testing.T) {
	g := buildFig1(t)
	d := previewtables.NewDiscoverer(g, previewtables.KeyCoverage, previewtables.NonKeyCoverage)
	all, err := d.AllOptimal(previewtables.Constraint{K: 2, N: 6})
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 2 {
		t.Fatalf("tied optima = %d, want 2 (the paper's Sec. 4 example ties)", len(all))
	}
	for _, p := range all {
		if math.Abs(p.Score-84) > 1e-9 {
			t.Errorf("tied score = %v, want 84", p.Score)
		}
	}
}

func TestBruteForceParallelPublic(t *testing.T) {
	g := buildFig1(t)
	d := previewtables.NewDiscoverer(g, previewtables.KeyCoverage, previewtables.NonKeyCoverage)
	c := previewtables.Constraint{K: 3, N: 8}
	seq, err := d.BruteForce(c)
	if err != nil {
		t.Fatal(err)
	}
	par, err := d.BruteForceParallel(c, 0)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(seq.Score-par.Score) > 1e-9 {
		t.Errorf("parallel %v != sequential %v", par.Score, seq.Score)
	}
}

func TestMediatorPublic(t *testing.T) {
	// AWARD as an attribute target is a mediator relative to FILM ACTOR:
	// awards also link to FILM DIRECTOR.
	g := buildFig1(t)
	d := previewtables.NewDiscoverer(g, previewtables.KeyCoverage, previewtables.NonKeyCoverage)
	p, err := d.Discover(previewtables.Constraint{K: 2, N: 6})
	if err != nil {
		t.Fatal(err)
	}
	s := g.Schema()
	// Just exercise the API across all chosen attributes; at least the
	// calls must be well formed and expansion must cover each value.
	for ti := range p.Tables {
		tb := &p.Tables[ti]
		tuples := previewtables.SampleTuples(g, tb, 2, nil)
		for ai := range tb.NonKeys {
			_, _ = previewtables.Mediator(s, tb.Key, tb, ai)
			for _, tu := range tuples {
				exp := previewtables.ExpandValues(g, tb, tu, ai)
				if len(exp) != len(tu.Values[ai]) {
					t.Fatalf("expansion dropped values: %d != %d", len(exp), len(tu.Values[ai]))
				}
			}
		}
	}
}

func TestPreviewDocumentPublic(t *testing.T) {
	g := buildFig1(t)
	p, err := previewtables.Discover(g, previewtables.Constraint{K: 2, N: 3})
	if err != nil {
		t.Fatal(err)
	}
	doc := previewtables.PreviewDocument(g, &p, 4)
	if doc.Score != p.Score || len(doc.Tables) != len(p.Tables) {
		t.Fatalf("doc %+v does not match preview (score %v, %d tables)", doc, p.Score, len(p.Tables))
	}
	raw, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	var back previewtables.PreviewDoc
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	if back.Score != doc.Score || len(back.Tables) != len(doc.Tables) {
		t.Fatalf("round trip changed the document: %+v vs %+v", back, doc)
	}
	td := previewtables.TableDocument(g, &p.Tables[0], 2)
	if td.Key != back.Tables[0].Key || len(td.Tuples) == 0 {
		t.Fatalf("table document: %+v", td)
	}
}

// TestLibraryMatchesServedBodies: the root package's renderers are the
// bodies previewd serves. For a multi-table preview with sampled tuples,
// the library's text, Markdown and JSON output equal the server's render
// bodies and the preview field of its preview body byte for byte, so
// every table draws from the one per-preview stream the server uses.
func TestLibraryMatchesServedBodies(t *testing.T) {
	g, err := freebase.Generate("film", freebase.GenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	const tuples = 2
	p, err := previewtables.NewDiscoverer(g, previewtables.KeyCoverage, previewtables.NonKeyCoverage).
		Discover(previewtables.Constraint{K: 3, N: 6})
	if err != nil {
		t.Fatal(err)
	}
	for i, tb := range p.Tables {
		if g.TypeCoverage(tb.Key) <= tuples {
			t.Fatalf("table %d: %d entities leave nothing to sample", i, g.TypeCoverage(tb.Key))
		}
	}

	reg := service.NewRegistry()
	if err := reg.Add("film", g); err != nil {
		t.Fatal(err)
	}
	srv := service.New(reg)
	serve := func(path string) []byte {
		t.Helper()
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/graphs/film/"+path, nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("GET %s: status %d: %s", path, rec.Code, rec.Body)
		}
		return rec.Body.Bytes()
	}
	const params = "k=3&n=6&tuples=2"

	var text, md bytes.Buffer
	if err := previewtables.Render(&text, g, &p, tuples); err != nil {
		t.Fatal(err)
	}
	if err := previewtables.RenderMarkdownPreview(&md, g, &p, tuples); err != nil {
		t.Fatal(err)
	}
	var doc bytes.Buffer
	enc := json.NewEncoder(&doc)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(previewtables.PreviewDocument(g, &p, tuples)); err != nil {
		t.Fatal(err)
	}
	var body struct{ Preview json.RawMessage }
	if err := json.Unmarshal(serve("preview?"+params), &body); err != nil {
		t.Fatal(err)
	}

	for _, c := range []struct {
		name     string
		lib, srv []byte
	}{
		{"text", text.Bytes(), serve("render?" + params)},
		{"markdown", md.Bytes(), serve("render?format=markdown&" + params)},
		{"json", bytes.TrimSuffix(doc.Bytes(), []byte("\n")), body.Preview},
	} {
		if !bytes.Equal(c.lib, c.srv) {
			t.Errorf("%s: library output differs from the served body:\n%s\nserved:\n%s", c.name, c.lib, c.srv)
		}
	}
}
