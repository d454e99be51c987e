package render_test

import (
	"bytes"
	"strings"
	"testing"
	"unicode/utf8"

	"github.com/uta-db/previewtables/internal/core"
	"github.com/uta-db/previewtables/internal/fig1"
	"github.com/uta-db/previewtables/internal/graph"
	"github.com/uta-db/previewtables/internal/render"
	"github.com/uta-db/previewtables/internal/score"
)

func fig2Preview(t *testing.T) (*graph.EntityGraph, core.Preview) {
	t.Helper()
	g := fig1.Graph()
	set := score.Compute(g, score.DefaultWalkOptions())
	d := core.New(set, core.Options{Key: score.KeyCoverage, NonKey: score.NonKeyCoverage})
	p, err := d.Discover(core.Constraint{K: 2, N: 6, Mode: core.Concise})
	if err != nil {
		t.Fatal(err)
	}
	return g, p
}

func TestTableRendering(t *testing.T) {
	g, p := fig2Preview(t)
	var buf bytes.Buffer
	if err := render.Table(&buf, g, &p.Tables[0], render.Options{Tuples: 4}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "FILM") {
		t.Errorf("missing key header:\n%s", out)
	}
	if !strings.Contains(out, "====") {
		t.Errorf("key attribute not underlined with '=':\n%s", out)
	}
	// The FILM table with all four films includes Hancock, whose Genres
	// cell (if the Genres column was chosen) is empty.
	if !strings.Contains(out, "Men in Black") {
		t.Errorf("expected sampled tuples:\n%s", out)
	}
}

func TestMultiValuedAndEmptyCells(t *testing.T) {
	g := fig1.Graph()
	s := g.Schema()
	film, _ := g.TypeByName(fig1.Film)
	var tb core.Table
	tb.Key = film
	for _, inc := range s.Incident(film) {
		name := s.RelType(inc.Rel).Name
		if name == fig1.RelGenres || name == fig1.RelDirector {
			tb.NonKeys = append(tb.NonKeys, core.Candidate{Inc: inc})
		}
	}
	var buf bytes.Buffer
	if err := render.Table(&buf, g, &tb, render.Options{Tuples: 4}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "{") {
		t.Errorf("multi-valued cell not braced:\n%s", out)
	}
	if !strings.Contains(out, "-") {
		t.Errorf("empty cell not rendered as '-':\n%s", out)
	}
	// Incoming attribute annotated with its source type.
	if !strings.Contains(out, "Director (of FILM DIRECTOR)") {
		t.Errorf("incoming attribute header missing direction:\n%s", out)
	}
}

func TestPreviewRendering(t *testing.T) {
	g, p := fig2Preview(t)
	var buf bytes.Buffer
	if err := render.Preview(&buf, g, &p, render.Options{Tuples: 2}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "2 tables") {
		t.Errorf("preview header missing:\n%s", out)
	}
	if strings.Count(out, "====") < 1 {
		t.Errorf("tables missing:\n%s", out)
	}
}

func TestRenderDeterministicWithNilRand(t *testing.T) {
	g, p := fig2Preview(t)
	var a, b bytes.Buffer
	if err := render.Preview(&a, g, &p, render.Options{Tuples: 3}); err != nil {
		t.Fatal(err)
	}
	if err := render.Preview(&b, g, &p, render.Options{Tuples: 3}); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Error("default rendering not deterministic")
	}
}

func TestRepresentativeOption(t *testing.T) {
	g, p := fig2Preview(t)
	var buf bytes.Buffer
	if err := render.Table(&buf, g, &p.Tables[0], render.Options{Tuples: 3, Representative: true}); err != nil {
		t.Fatal(err)
	}
	if len(strings.Split(strings.TrimSpace(buf.String()), "\n")) != 5 {
		t.Errorf("want header + separator + 3 rows:\n%s", buf.String())
	}
}

func TestCellClipping(t *testing.T) {
	// A narrow width forces the multi-valued Genres cell ("{Action Film,
	// Science Fiction}") to be truncated with an ellipsis.
	g := fig1.Graph()
	s := g.Schema()
	film, _ := g.TypeByName(fig1.Film)
	var tb core.Table
	tb.Key = film
	for _, inc := range s.Incident(film) {
		if s.RelType(inc.Rel).Name == fig1.RelGenres {
			tb.NonKeys = append(tb.NonKeys, core.Candidate{Inc: inc})
		}
	}
	var buf bytes.Buffer
	if err := render.Table(&buf, g, &tb, render.Options{Tuples: 4, MaxCellWidth: 10}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "…") {
		t.Errorf("long cell not clipped with ellipsis:\n%s", out)
	}
	if strings.Contains(out, "Science Fiction}") {
		t.Errorf("cell exceeded MaxCellWidth:\n%s", out)
	}
}

// TestCellClippingKeepsRunes: a clipped cell is valid UTF-8 and at most
// MaxCellWidth runes wide — the unit the grid aligns by — for every limit
// around each multibyte rune. ASCII cells clip exactly as before.
func TestCellClippingKeepsRunes(t *testing.T) {
	for _, name := range []string{
		"Orquesta Sinfónica de la Ciudad de México",
		"東京フィルハーモニー交響楽団",
		"Men in Black",
	} {
		var b graph.Builder
		b.Entity(name, b.Type("ORCHESTRA"))
		g, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		runes := []rune(name)
		for max := 1; max <= len(runes)+1; max++ {
			var buf bytes.Buffer
			if err := render.Table(&buf, g, &core.Table{Key: 0}, render.Options{Tuples: 1, MaxCellWidth: max}); err != nil {
				t.Fatal(err)
			}
			out := buf.String()
			if !utf8.ValidString(out) {
				t.Fatalf("%q at width %d: output is not valid UTF-8: %q", name, max, out)
			}
			lines := strings.Split(strings.TrimSuffix(out, "\n"), "\n")
			cell := lines[len(lines)-1]
			want := name
			switch {
			case max == 1 && len(runes) > 1:
				want = string(runes[:1])
			case max < len(runes):
				want = string(runes[:max-1]) + "…"
			}
			if cell != want {
				t.Errorf("%q at width %d: cell %q, want %q", name, max, cell, want)
			}
			if n := utf8.RuneCountInString(cell); n > max {
				t.Errorf("%q at width %d: cell is %d runes wide", name, max, n)
			}
		}
	}
}

func TestMarkdownTable(t *testing.T) {
	g, p := fig2Preview(t)
	var buf bytes.Buffer
	if err := render.MarkdownTable(&buf, g, &p.Tables[0], render.Options{Tuples: 2}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "| **FILM** |") {
		t.Errorf("markdown key header missing:\n%s", out)
	}
	if !strings.Contains(out, "|---|") {
		t.Errorf("markdown separator missing:\n%s", out)
	}
}

// TestMarkdownHeadersEscaped: type and relationship names arrive from
// write requests unchecked, so the header row escapes a pipe as the data
// rows do; otherwise the row splits into more columns than its separator.
func TestMarkdownHeadersEscaped(t *testing.T) {
	var b graph.Builder
	film, person := b.Type("FILM|MOVIE"), b.Type("PERSON")
	rel := b.RelType("directed|by", film, person)
	b.Edge(b.Entity("Alien", film), b.Entity("Ridley Scott", person), rel)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	s := g.Schema()
	cases := []struct {
		key    graph.TypeID
		header string
	}{
		{film, `| **FILM\|MOVIE** | directed\|by |`},
		{person, `| **PERSON** | directed\|by (of FILM\|MOVIE) |`},
	}
	for _, c := range cases {
		tb := core.Table{Key: c.key, NonKeys: []core.Candidate{{Inc: s.Incident(c.key)[0]}}}
		var buf bytes.Buffer
		if err := render.MarkdownTable(&buf, g, &tb, render.Options{Tuples: 1}); err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(buf.String(), "\n")
		header, sep, row := lines[0], lines[1], lines[2]
		if header != c.header {
			t.Errorf("header row %q, want %q", header, c.header)
		}
		cells := func(line string) int { return strings.Count(line, "|") - strings.Count(line, `\|`) }
		if cells(header) != cells(sep) || cells(row) != cells(sep) {
			t.Errorf("rows split into different column counts:\n%s", buf.String())
		}
	}
}

func TestSchemaDOT(t *testing.T) {
	g := fig1.Graph()
	var buf bytes.Buffer
	if err := render.SchemaDOT(&buf, g.Schema()); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "digraph schema {") || !strings.Contains(out, `label="Actor"`) {
		t.Errorf("DOT output malformed:\n%s", out)
	}
	if !strings.Contains(out, `label="FILM ACTOR"`) {
		t.Errorf("type labels missing:\n%s", out)
	}
}

func TestPreviewDOT(t *testing.T) {
	g, p := fig2Preview(t)
	var buf bytes.Buffer
	if err := render.PreviewDOT(&buf, g.Schema(), &p); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "doubleoctagon") {
		t.Errorf("key attributes not highlighted:\n%s", out)
	}
	if !strings.Contains(out, "style=bold") {
		t.Errorf("chosen relationships not bold:\n%s", out)
	}
	if !strings.Contains(out, "style=dashed") {
		t.Errorf("unchosen relationships not dashed:\n%s", out)
	}
}
