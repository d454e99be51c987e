package service

// The served-bytes golden file: one line per request over a fixed sweep
// of every read route, format and parameter axis, on static graphs and
// on a durable leader and its follower across a seeded write stream.
// Each line holds the node, the request, the status, the ETag and the
// sha256 of the body, so a change that moves any served byte fails here
// and names the first request it moved. Rewrite the file with
//
//	go test ./internal/service -run TestServedGolden -update
//
// only for a change that is meant to move bytes.

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/uta-db/previewtables/internal/fig1"
	"github.com/uta-db/previewtables/internal/freebase"
	"github.com/uta-db/previewtables/internal/graph"
)

var update = flag.Bool("update", false, "rewrite testdata/served.golden from the current build")

const goldenPath = "testdata/served.golden"

// goldenSweep records one line per request it sends.
type goldenSweep struct {
	t     *testing.T
	lines []string
}

// get sends one GET (conditional when inm is set) to h and records its
// line; it returns the response's ETag.
func (s *goldenSweep) get(node string, h http.Handler, target, inm string) string {
	s.t.Helper()
	req := httptest.NewRequest(http.MethodGet, target, nil)
	method := "GET"
	if inm != "" {
		req.Header.Set("If-None-Match", inm)
		method = "GET(If-None-Match)"
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	etag := rec.Header().Get("ETag")
	if etag == "" {
		etag = "-"
	}
	sum := sha256.Sum256(rec.Body.Bytes())
	s.lines = append(s.lines, fmt.Sprintf("%s %s %s %d %s %x", node, method, target, rec.Code, etag, sum))
	return etag
}

// goldenModes are the constraints of the sweep, one per mode.
var goldenModes = []string{
	"k=3&n=9&mode=concise",
	"k=2&n=5&mode=tight&d=2",
	"k=2&n=6&mode=diverse&d=2",
}

// goldenMeasures is every (key, non-key) measure pair.
var goldenMeasures = []string{
	"key=coverage&nonkey=coverage",
	"key=coverage&nonkey=entropy",
	"key=walk&nonkey=coverage",
	"key=walk&nonkey=entropy",
}

// staticRows sweeps one static graph: anytime first, while no search
// has run, so each anytime answer is fixed by the order of the sweep;
// then every mode × measure pair × tuple count in JSON, text and
// Markdown; representative sampling; stats; and a 304 replay per route.
func (s *goldenSweep) staticRows(h http.Handler, name string) {
	g := "/v1/graphs/" + name
	// An uncertified anytime request answers with the budget-bounded
	// search; after the exact search has run, the same URL is certified.
	// Its background refinement only installs the certificate the exact
	// request installs anyway, and records epoch 0 as refined, which the
	// certified request records first.
	for _, c := range goldenModes[1:] {
		q := c + "&key=coverage&nonkey=entropy&tuples=5"
		s.get("static", h, g+"/preview?"+q+"&anytime=1", "")
		s.get("static", h, g+"/preview?"+q, "")
		s.get("static", h, g+"/preview?"+q+"&anytime=1", "")
	}
	s.get("static", h, g+"/preview?"+goldenModes[0]+"&tuples=5&anytime=1", "")
	for _, c := range goldenModes {
		for _, m := range goldenMeasures {
			for _, tuples := range []int{0, 1, 5, 40} {
				q := fmt.Sprintf("%s&%s&tuples=%d", c, m, tuples)
				s.get("static", h, g+"/preview?"+q, "")
				s.get("static", h, g+"/render?"+q+"&format=text", "")
				s.get("static", h, g+"/render?"+q+"&format=markdown", "")
			}
		}
		q := c + "&key=walk&nonkey=entropy&tuples=5&rep=1"
		s.get("static", h, g+"/preview?"+q, "")
		s.get("static", h, g+"/render?"+q+"&format=text", "")
		s.get("static", h, g+"/render?"+q+"&format=markdown", "")
	}
	for _, target := range []string{
		g + "/stats",
		g + "/preview?" + goldenModes[1] + "&" + goldenMeasures[3] + "&tuples=5",
		g + "/render?" + goldenModes[0] + "&" + goldenMeasures[0] + "&tuples=5&format=text",
		g + "/render?" + goldenModes[2] + "&" + goldenMeasures[1] + "&tuples=40&format=markdown",
	} {
		s.get("static", h, target, s.get("static", h, target, ""))
	}
}

// liveRows reads one node of the replicated fig1 graph at its current
// epoch.
func (s *goldenSweep) liveRows(node string, h http.Handler) {
	g := "/v1/graphs/fig1"
	s.get(node, h, "/v1/graphs", "")
	s.get(node, h, g+"/stats", "")
	for _, c := range goldenModes {
		for _, m := range []string{goldenMeasures[0], goldenMeasures[3]} {
			q := c + "&" + m + "&tuples=40"
			s.get(node, h, g+"/preview?"+q, "")
			s.get(node, h, g+"/render?"+q+"&format=text", "")
			s.get(node, h, g+"/render?"+q+"&format=markdown", "")
		}
	}
	target := g + "/preview?" + goldenModes[0] + "&tuples=5"
	s.get(node, h, target, s.get(node, h, target, ""))
}

// goldenStream is a seeded write stream over fig1 that adds entities
// whose names share prefixes with fig1's, extend them, or sort among
// them with non-ASCII bytes, each tied into multi-valued cells of
// existing entities through fig1's relationship types. Batch 3 is
// structural: it declares a new type and relationship type.
func goldenStream() []string {
	base := fig1.Graph()
	rng := rand.New(rand.NewSource(21))
	twists := []func(string) string{
		func(n string) string { return n[:1+rng.Intn(len(n))] + " II" },
		func(n string) string { return n + " (" + string(rune('a'+rng.Intn(26))) + ")" },
		func(n string) string { return strings.ToLower(n[:1]) + n[1:] },
		func(n string) string { return n[:1+rng.Intn(len(n))] + "é" },
		func(n string) string { return "Ω " + n },
	}
	seen := map[string]bool{}
	for e := 0; e < base.NumEntities(); e++ {
		seen[base.EntityName(graph.EntityID(e))] = true
	}
	type edge struct {
		From     string `json:"from"`
		Rel      string `json:"rel"`
		FromType string `json:"from_type"`
		ToType   string `json:"to_type"`
		To       string `json:"to"`
	}
	var batches []string
	for b := 0; b < 4; b++ {
		var edges []edge
		for i := 0; i < 6; i++ {
			rt := base.RelType(graph.RelTypeID(rng.Intn(base.NumRelTypes())))
			from, to := base.EntitiesOfType(rt.From), base.EntitiesOfType(rt.To)
			oldFrom := rng.Intn(2) == 0
			anchor := from[rng.Intn(len(from))]
			model := to[rng.Intn(len(to))]
			if !oldFrom {
				anchor, model = model, anchor
			}
			name := twists[rng.Intn(len(twists))](base.EntityName(model))
			if seen[name] {
				continue
			}
			seen[name] = true
			e := edge{From: base.EntityName(anchor), Rel: rt.Name,
				FromType: base.TypeName(rt.From), ToType: base.TypeName(rt.To), To: name}
			if !oldFrom {
				e.From, e.To = name, base.EntityName(anchor)
			}
			edges = append(edges, e)
			// A second old entity shares the new one, so its cell mixes
			// old and new names too.
			if other := from[rng.Intn(len(from))]; oldFrom && other != anchor {
				edges = append(edges, edge{From: base.EntityName(other), Rel: rt.Name,
					FromType: e.FromType, ToType: e.ToType, To: name})
			}
		}
		if b == 2 {
			edges = append(edges, edge{From: "Columbia Pictures", Rel: "Produced By",
				FromType: "STUDIO", ToType: fig1.Film, To: "Men in Black"})
		}
		body, err := json.Marshal(map[string][]edge{"edges": edges})
		if err != nil {
			panic(err)
		}
		batches = append(batches, string(body))
	}
	return batches
}

func TestServedGolden(t *testing.T) {
	s := &goldenSweep{t: t}

	reg := NewRegistry()
	if err := reg.Add("fig1", fig1.Graph()); err != nil {
		t.Fatal(err)
	}
	for _, d := range []string{"film", "books"} {
		g, err := freebase.Generate(d, freebase.DefaultGenOptions())
		if err != nil {
			t.Fatal(err)
		}
		if err := reg.Add(d, g); err != nil {
			t.Fatal(err)
		}
	}
	srv := New(reg)
	srv.AnytimeBudget = 40
	for _, name := range []string{"fig1", "film", "books"} {
		s.staticRows(srv, name)
	}
	s.get("static", srv, "/v1/graphs", s.get("static", srv, "/v1/graphs", ""))

	// A durable leader and a caught-up follower, read at every epoch of
	// the stream.
	root := t.TempDir()
	leader := startDurable(t, "", filepath.Join(root, "leader-wal"))
	fCkpt := filepath.Join(root, "follower-ckpt")
	if err := os.MkdirAll(fCkpt, 0o755); err != nil {
		t.Fatal(err)
	}
	follower := startFollowerNode(t, leader.ts.URL, fCkpt, filepath.Join(root, "follower-wal"))
	for epoch, body := range append([]string{""}, goldenStream()...) {
		if body != "" {
			postBatch(t, leader.ts, "edges", body)
		}
		if err := follower.f.WaitCaughtUp(uint64(epoch), 30*time.Second); err != nil {
			t.Fatal(err)
		}
		s.liveRows(fmt.Sprintf("leader@%d", epoch), leader.srv)
		s.liveRows(fmt.Sprintf("follower@%d", epoch), follower.ts.Config.Handler)
	}

	got := strings.Join(s.lines, "\n") + "\n"
	if *update {
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	wantLines := readLines(want)
	for i, line := range s.lines {
		if i >= len(wantLines) {
			t.Fatalf("request %d is new: %s", i+1, line)
		}
		if line != wantLines[i] {
			t.Fatalf("request %d moved:\n got: %s\nwant: %s", i+1, line, wantLines[i])
		}
	}
	if len(wantLines) > len(s.lines) {
		t.Fatalf("request %d is gone: %s", len(s.lines)+1, wantLines[len(s.lines)])
	}
}

func readLines(b []byte) []string {
	var lines []string
	sc := bufio.NewScanner(bytes.NewReader(b))
	for sc.Scan() {
		lines = append(lines, sc.Text())
	}
	return lines
}
