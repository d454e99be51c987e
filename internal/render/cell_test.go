package render

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"
	"unicode/utf8"

	"github.com/uta-db/previewtables/internal/core"
	"github.com/uta-db/previewtables/internal/freebase"
	"github.com/uta-db/previewtables/internal/graph"
	"github.com/uta-db/previewtables/internal/graph/graphtest"
	"github.com/uta-db/previewtables/internal/score"
)

// refCellNames and refFormatCell are the cell body as it was before the
// graphs had a name order: copy the names and sort the strings.
func refCellNames(g *graph.EntityGraph, vals []graph.EntityID) []string {
	names := make([]string, len(vals))
	for i, v := range vals {
		names[i] = g.EntityName(v)
	}
	sort.Strings(names)
	return names
}

func refFormatCell(g *graph.EntityGraph, vals []graph.EntityID) string {
	switch len(vals) {
	case 0:
		return "-"
	case 1:
		return g.EntityName(vals[0])
	}
	return "{" + strings.Join(refCellNames(g, vals), ", ") + "}"
}

// cellWidths are the text widths every cell is checked at: each side of
// short names and separators, the default, and wider than any cell the
// clip stops early in.
var cellWidths = []int{1, 2, 3, 4, 7, 10, 40, 300}

// checkCells compares, for every (entity, relationship type, direction)
// run of g, the cell each renderer shows against the reference: the JSON
// names, the Markdown cell, and the text cell at every width. The
// reference's text and Markdown cells flatten line endings as the
// renderers do. A ", " always stands between two names, so no "\r\n"
// pair spans two of them, and flattening the joined cell equals
// flattening each name.
func checkCells(g *graph.EntityGraph) error {
	s := g.Schema()
	for e := 0; e < g.NumEntities(); e++ {
		for _, t := range g.Entity(graph.EntityID(e)).Types {
			for _, inc := range s.Incident(t) {
				vals := g.Neighbors(graph.EntityID(e), inc.Rel, inc.Outgoing)
				if err := checkCell(g, vals); err != nil {
					return fmt.Errorf("entity %d, relationship type %d, outgoing %v: %w", e, inc.Rel, inc.Outgoing, err)
				}
			}
		}
	}
	return nil
}

func checkCell(g *graph.EntityGraph, vals []graph.EntityID) error {
	wantNames := refCellNames(g, vals)
	doc := tupleDoc(g, core.Tuple{Values: [][]graph.EntityID{vals}})
	if got := doc.Values[0]; got == nil || !slices.Equal(got, wantNames) {
		return fmt.Errorf("JSON names %q, want %q", got, wantNames)
	}
	want := refFormatCell(g, vals)
	if got, want := string(escapeMDFrom(appendCell(nil, g, vals, 0, appendName), 0)), escapeMD(want); got != want {
		return fmt.Errorf("Markdown cell %q, want %q", got, want)
	}
	for _, w := range cellWidths {
		var gr grid
		gr.cells = appendCell(gr.cells, g, vals, w, appendOneLine)
		gr.end(w)
		if got, want := string(gr.cells), clip(oneLine(want), w); got != want {
			return fmt.Errorf("text cell at width %d: %q, want %q", w, got, want)
		}
	}
	return nil
}

// checkTables renders, for every entity type of g, the table keyed by it
// with every incident relationship type as a column and every entity of
// the type as a row, and compares its text at every cell width and its
// Markdown with the reference renderer's bytes; then the same for the
// preview of all those tables.
func checkTables(g *graph.EntityGraph) error {
	s := g.Schema()
	var p core.Preview
	for ty := 0; ty < g.NumTypes(); ty++ {
		tb := core.Table{Key: graph.TypeID(ty)}
		for _, inc := range s.Incident(tb.Key) {
			tb.NonKeys = append(tb.NonKeys, core.Candidate{Inc: inc})
		}
		p.Tables = append(p.Tables, tb)
	}
	p.Score = float64(g.NumEntities()) / 7
	same := func(what string, render, ref func(io.Writer) error) error {
		var got, want bytes.Buffer
		if err := render(&got); err != nil {
			return err
		}
		if err := ref(&want); err != nil {
			return err
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			return fmt.Errorf("%s:\n%q\nwant\n%q", what, got.Bytes(), want.Bytes())
		}
		return nil
	}
	opts := Options{Tuples: g.NumEntities()}
	for i := range p.Tables {
		t := &p.Tables[i]
		name := g.TypeName(t.Key)
		for _, w := range cellWidths {
			opts.MaxCellWidth = w
			if err := same(fmt.Sprintf("%s text at width %d", name, w),
				func(b io.Writer) error { return Table(b, g, t, opts) },
				func(b io.Writer) error { return refTable(b, g, t, opts) }); err != nil {
				return err
			}
		}
		if err := same(name+" Markdown",
			func(b io.Writer) error { return MarkdownTable(b, g, t, opts) },
			func(b io.Writer) error { return refMarkdownTable(b, g, t, opts) }); err != nil {
			return err
		}
	}
	opts.MaxCellWidth = 0
	if err := same("preview text",
		func(b io.Writer) error { return Preview(b, g, &p, opts) },
		func(b io.Writer) error { return refPreview(b, g, &p, opts) }); err != nil {
		return err
	}
	return same("preview Markdown",
		func(b io.Writer) error { return MarkdownPreview(b, g, &p, opts) },
		func(b io.Writer) error { return refMarkdownPreview(b, g, &p, opts) })
}

// The renderer as it was before it appended to byte slices, kept as the
// reference the append-based writer must match byte for byte: Table,
// Preview, MarkdownTable and MarkdownPreview through fmt, writeGrid, pad
// and clip, with refFormatCell for the cell body.

func refTable(w io.Writer, g *graph.EntityGraph, t *core.Table, opts Options) error {
	opts = opts.withDefaults()
	s := g.Schema()

	headers := make([]string, 0, len(t.NonKeys)+1)
	headers = append(headers, oneLine(g.TypeName(t.Key)))
	for _, c := range t.NonKeys {
		headers = append(headers, oneLine(ColumnHeader(s, c)))
	}

	tuples := sampleTuples(g, t, opts)
	rows := make([][]string, 0, len(tuples))
	for _, tu := range tuples {
		row := make([]string, 0, len(headers))
		row = append(row, clip(oneLine(g.EntityName(tu.Key)), opts.MaxCellWidth))
		for _, vals := range tu.Values {
			row = append(row, clip(oneLine(refFormatCell(g, vals)), opts.MaxCellWidth))
		}
		rows = append(rows, row)
	}
	return writeGrid(w, headers, rows, true)
}

func refPreview(w io.Writer, g *graph.EntityGraph, p *core.Preview, opts Options) error {
	opts = opts.withDefaults()
	fmt.Fprintf(w, "preview: %d tables, %d non-key attributes, score %.4g\n\n",
		len(p.Tables), p.NonKeyCount(), p.Score)
	for i := range p.Tables {
		if i > 0 {
			fmt.Fprintln(w)
		}
		if err := refTable(w, g, &p.Tables[i], opts); err != nil {
			return err
		}
	}
	return nil
}

// clip truncates s to at most max runes — the unit writeGrid aligns by —
// ending a truncated cell in "…". It never splits a rune.
func clip(s string, max int) string {
	if utf8.RuneCountInString(s) <= max {
		return s
	}
	keep, ellipsis := max-1, "…"
	if max <= 1 {
		keep, ellipsis = max, ""
	}
	end := 0
	for ; keep > 0; keep-- {
		_, size := utf8.DecodeRuneInString(s[end:])
		end += size
	}
	return s[:end] + ellipsis
}

// writeGrid renders an aligned text grid. When underlineKey is set, the
// separator under the first column uses '=' — the ASCII stand-in for the
// paper's underlined key attribute.
func writeGrid(w io.Writer, headers []string, rows [][]string, underlineKey bool) error {
	widths := make([]int, len(headers))
	for i, h := range headers {
		widths[i] = len([]rune(h))
	}
	for _, row := range rows {
		for i, cell := range row {
			if n := len([]rune(cell)); i < len(widths) && n > widths[i] {
				widths[i] = n
			}
		}
	}
	line := func(cells []string) error {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = pad(c, widths[i])
		}
		_, err := fmt.Fprintln(w, strings.TrimRight(strings.Join(parts, "  "), " "))
		return err
	}
	if err := line(headers); err != nil {
		return err
	}
	seps := make([]string, len(headers))
	for i := range seps {
		ch := "-"
		if underlineKey && i == 0 {
			ch = "="
		}
		seps[i] = strings.Repeat(ch, widths[i])
	}
	if err := line(seps); err != nil {
		return err
	}
	for _, row := range rows {
		if err := line(row); err != nil {
			return err
		}
	}
	return nil
}

func pad(s string, w int) string {
	n := len([]rune(s))
	if n >= w {
		return s
	}
	return s + strings.Repeat(" ", w-n)
}

func refMarkdownTable(w io.Writer, g *graph.EntityGraph, t *core.Table, opts Options) error {
	opts = opts.withDefaults()
	s := g.Schema()
	fmt.Fprintf(w, "| **%s** |", escapeMD(g.TypeName(t.Key)))
	for _, c := range t.NonKeys {
		fmt.Fprintf(w, " %s |", escapeMD(ColumnHeader(s, c)))
	}
	fmt.Fprintln(w)
	fmt.Fprint(w, "|---|")
	for range t.NonKeys {
		fmt.Fprint(w, "---|")
	}
	fmt.Fprintln(w)
	for _, tu := range sampleTuples(g, t, opts) {
		fmt.Fprintf(w, "| %s |", escapeMD(g.EntityName(tu.Key)))
		for _, vals := range tu.Values {
			fmt.Fprintf(w, " %s |", escapeMD(refFormatCell(g, vals)))
		}
		fmt.Fprintln(w)
	}
	return nil
}

func refMarkdownPreview(w io.Writer, g *graph.EntityGraph, p *core.Preview, opts Options) error {
	opts = opts.withDefaults()
	for i := range p.Tables {
		if i > 0 {
			fmt.Fprintln(w)
		}
		if err := refMarkdownTable(w, g, &p.Tables[i], opts); err != nil {
			return err
		}
	}
	return nil
}

// craftedNames sort in ways a name order can get wrong: shared prefixes,
// a name that is a prefix of another, case, non-ASCII and invalid UTF-8
// bytes, a NUL, and the empty name. Pipes, line ends and trailing spaces
// test the table writers' escaping, flattening and trimming.
var craftedNames = []string{
	"", "a", "ab", "abc", "abd", "abc d", "abc\x00", "a\x00b", "b", "B", "A",
	"Ä", "é", "e", "ée", "日本", "日", "日本語", "\xff", "\xfe\xff", "\xe2\x82", "€uro",
	"Men", "Men in Black", "Men in Black II", " Men", "~", "\x7f", "Ω", "Zebra", "zebra",
	"Orquesta Sinfónica de la Ciudad de México", "東京フィルハーモニー交響楽団",
	"trailing ", "  ", "a|b", "line\r\nend ", "日本 ",
}

// craftedGraph links hubs to the crafted names in several first-edge
// orders, so its cells hold every name at once, disjoint halves, a
// shuffled subset, pairs and single names, each single name once in the
// last column of the hubs' table.
func craftedGraph(t testing.TB) *graph.EntityGraph {
	t.Helper()
	var b graph.Builder
	hub, name := b.Type("HUB"), b.Type("NAME")
	rel := b.RelType("holds", hub, name)
	ids := make([]graph.EntityID, len(craftedNames))
	for i, n := range craftedNames {
		ids[i] = b.Entity(n, name)
	}
	link := func(h string, members []graph.EntityID) {
		from := b.Entity(h, hub)
		for _, m := range members {
			b.Edge(from, m, rel)
		}
	}
	reversed := slices.Clone(ids)
	slices.Reverse(reversed)
	link("hub: every name", ids)
	link("hub: every name, reversed", reversed)
	link("hub: first half", ids[:len(ids)/2])
	link("hub: second half", ids[len(ids)/2:])
	for i := range ids {
		link(fmt.Sprintf("hub: pair %d", i), []graph.EntityID{ids[i], ids[(i*7+3)%len(ids)]})
		link(fmt.Sprintf("hub: name %d", i), ids[i:i+1])
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestCellBodyMatchesStringSort: a cell written straight from its graph
// run, in the run's order, gives the bytes sorting the names gave, in
// JSON, Markdown and text at every clip width, and whole tables render
// the reference renderer's bytes, over the layout corpus and the crafted
// names.
func TestCellBodyMatchesStringSort(t *testing.T) {
	gs, err := graphtest.Corpus()
	if err != nil {
		t.Fatal(err)
	}
	gs = append(gs, graphtest.Named{Name: "crafted", Graph: craftedGraph(t)})
	for _, n := range gs {
		if err := checkCells(n.Graph); err != nil {
			t.Errorf("%s: %v", n.Name, err)
		}
		if err := checkTables(n.Graph); err != nil {
			t.Errorf("%s: %v", n.Name, err)
		}
	}
}

// TestDefaultWidthCellAllocs: a cell is a prefix of its graph run, so a
// text cell of the default width, a Markdown cell and a text cell clipped
// at 400 runes, each of 100 values, render without allocating.
func TestDefaultWidthCellAllocs(t *testing.T) {
	var b graph.Builder
	hub, name := b.Type("HUB"), b.Type("NAME")
	rel := b.RelType("holds", hub, name)
	from := b.Entity("hub", hub)
	for i := 100; i > 0; i-- {
		b.Edge(from, b.Entity(fmt.Sprintf("name %03d", i), name), rel)
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	vals := g.Neighbors(from, rel, true)
	if len(vals) != 100 {
		t.Fatalf("the hub holds %d values, want 100", len(vals))
	}
	dst := make([]byte, 0, 4096)
	for _, c := range []struct {
		what  string
		width int
		name  func([]byte, string) []byte
	}{
		{"text cell at the default width", defaultCellWidth, appendOneLine},
		{"Markdown cell", 0, appendName},
		{"text cell at width 400", 400, appendOneLine},
	} {
		allocs := testing.AllocsPerRun(100, func() {
			dst = appendCell(dst[:0], g, vals, c.width, c.name)
		})
		if allocs != 0 {
			t.Errorf("a %d-value %s allocates %v times per render, want 0", len(vals), c.what, allocs)
		}
	}
}

// TestLineBreaksFlattened: names arrive unvalidated through the write
// routes, so the text and Markdown renderers turn each "\r\n", "\r" and
// "\n" in a cell or header into one space; otherwise the row splits.
// JSON keeps the names as they are.
func TestLineBreaksFlattened(t *testing.T) {
	cases := []struct{ name, flat string }{
		{"Sci\nFi", "Sci Fi"},
		{"Men in\rBlack", "Men in Black"},
		{"Men in\r\nBlack", "Men in Black"},
		{"two\n\rends", "two  ends"},
		{"\r\n\r\n", "  "},
		{"tail\r", "tail "},
		{"pipe|and\nbreak", "pipe|and break"},
	}
	for _, c := range cases {
		var b graph.Builder
		film, genre := b.Type("FILM\nTYPE"), b.Type("GENRE")
		rel := b.RelType("Genres\r\n", film, genre)
		key := b.Entity(c.name, film)
		b.Edge(key, b.Entity("Comedy", genre), rel)
		b.Edge(key, b.Entity(c.name+"!", genre), rel)
		g, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		tb := core.Table{Key: film, NonKeys: []core.Candidate{{Inc: g.Schema().Incident(film)[0]}}}
		cell := "{Comedy, " + c.flat + "!}"
		if c.name+"!" < "Comedy" {
			cell = "{" + c.flat + "!, Comedy}"
		}
		var text, md bytes.Buffer
		if err := Table(&text, g, &tb, Options{Tuples: 1, MaxCellWidth: 100}); err != nil {
			t.Fatal(err)
		}
		if err := MarkdownTable(&md, g, &tb, Options{Tuples: 1}); err != nil {
			t.Fatal(err)
		}
		keyWidth := max(utf8.RuneCountInString("FILM TYPE"), utf8.RuneCountInString(c.flat))
		for _, out := range []struct {
			format, body, header, row string
		}{
			{"text", text.String(), "FILM TYPE", pad(c.flat, keyWidth) + "  " + cell},
			{"markdown", md.String(), "| **FILM TYPE** | Genres  |", "| " + escapeMD(c.flat) + " | " + escapeMD(cell) + " |"},
		} {
			lines := strings.Split(strings.TrimSuffix(out.body, "\n"), "\n")
			if len(lines) != 3 || strings.ContainsRune(out.body, '\r') {
				t.Errorf("%q, %s: want 3 lines without a CR, got %q", c.name, out.format, out.body)
				continue
			}
			if !strings.HasPrefix(lines[0], out.header) || !strings.HasPrefix(lines[2], out.row) {
				t.Errorf("%q, %s: header %q and row %q, want prefixes %q and %q",
					c.name, out.format, lines[0], lines[2], out.header, out.row)
			}
		}
		doc := TableDocument(g, &tb, Options{Tuples: 1})
		if got := doc.Tuples[0]; got.Key != c.name || !slices.Contains(got.Values[0], c.name+"!") {
			t.Errorf("%q: JSON tuple %q changed the name", c.name, got)
		}
	}
}

// TestConcurrentFirstRenders: on a freshly generated graph many
// goroutines render multi-valued cells at once, and every body equals
// one rendered alone from another copy of the graph.
func TestConcurrentFirstRenders(t *testing.T) {
	fresh := func() *graph.EntityGraph {
		g, err := freebase.Generate("film", freebase.DefaultGenOptions())
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	ref := fresh()
	d := core.New(score.Compute(ref, score.DefaultWalkOptions()),
		core.Options{Key: score.KeyCoverage, NonKey: score.NonKeyCoverage})
	p, err := d.Discover(core.Constraint{K: 3, N: 9, Mode: core.Concise})
	if err != nil {
		t.Fatal(err)
	}
	formats := []func(*graph.EntityGraph) []byte{
		func(g *graph.EntityGraph) []byte {
			body, err := json.Marshal(PreviewDocument(g, &p, Options{Tuples: 40}))
			if err != nil {
				t.Error(err)
			}
			return body
		},
		func(g *graph.EntityGraph) []byte {
			var buf bytes.Buffer
			if err := Preview(&buf, g, &p, Options{Tuples: 40}); err != nil {
				t.Error(err)
			}
			return buf.Bytes()
		},
		func(g *graph.EntityGraph) []byte {
			var buf bytes.Buffer
			if err := MarkdownPreview(&buf, g, &p, Options{Tuples: 40}); err != nil {
				t.Error(err)
			}
			return buf.Bytes()
		},
	}
	want := make([][]byte, len(formats))
	for i, f := range formats {
		want[i] = f(ref)
	}
	if !bytes.Contains(want[1], []byte("{")) {
		t.Fatal("the preview renders no multi-valued cell")
	}
	g := fresh()
	const workers = 12
	var wg sync.WaitGroup
	start := make(chan struct{})
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			<-start
			i := w % len(formats)
			if got := formats[i](g); !bytes.Equal(got, want[i]) {
				t.Errorf("worker %d: format %d renders other bytes than a lone render", w, i)
			}
		}(w)
	}
	close(start)
	wg.Wait()
}

// FuzzCellOrder decodes entity names as well as edges from its input, so
// names of any bytes, lengths and shared prefixes meet in one cell. It
// checks every cell against the string sort, the whole table in text at
// every clip width and in Markdown against the reference renderer, the
// name order and name lookups against the names, and the order
// graph.Derive merges from a prefix of the entities against a fresh one.
func FuzzCellOrder(f *testing.F) {
	f.Add([]byte("\x05\x02ab\x01a\x03abc\x00\x02\xff\xfe\x01\x00\x00\x01\x00\x02\x00\x03\x00\x04"))
	f.Add([]byte("\x08\x03Men\x0cMen in Black\x02\xc3\xa9\x01e\x01\r\x02\r\n\x01\n\x05 Men\x03\x00\x01\x00\x02\x00\x03\x00\x04\x00\x05\x00\x06\x00\x07"))
	f.Add([]byte("\x10\x07"))
	f.Add([]byte("\x06\x01\x03a|b\x04tail \x06\xe6\x97\xa5\xe6\x9c\xac\x03x\r\n\x02\xff|\x01 \x00\x01\x01\x00\x00\x02\x00\x03\x00\x04\x00\x05\x05\x00"))
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() int {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return int(b)
		}
		n, split := 1+next()%48, next()
		var names []string
		seen := map[string]bool{}
		for i := 0; i < n; i++ {
			l := next() % 16
			l = min(l, len(data))
			name := string(data[:l])
			data = data[l:]
			if !seen[name] {
				seen[name] = true
				names = append(names, name)
			}
		}
		build := func(names []string, edges bool) *graph.EntityGraph {
			var b graph.Builder
			ty := b.Type("T")
			rel := b.RelType("r", ty, ty)
			ids := make([]graph.EntityID, len(names))
			for i, name := range names {
				ids[i] = b.Entity(name, ty)
			}
			for rest := data; edges && len(rest) >= 2; rest = rest[2:] {
				b.Edge(ids[int(rest[0])%len(ids)], ids[int(rest[1])%len(ids)], rel)
			}
			g, err := b.Build()
			if err != nil {
				t.Fatal(err)
			}
			return g
		}
		g := build(names, true)
		if err := checkCells(g); err != nil {
			t.Fatal(err)
		}
		if err := checkTables(g); err != nil {
			t.Fatal(err)
		}
		if err := graphtest.CheckNames(g); err != nil {
			t.Fatal(err)
		}
		cut := split % (len(names) + 1)
		prev := build(names[:cut], false)
		var d graph.Delta
		for _, name := range names[cut:] {
			d.Entities = append(d.Entities, graph.Entity{Name: name, Types: []graph.TypeID{0}})
		}
		derived, err := graph.Derive(prev, d)
		if err != nil {
			t.Fatal(err)
		}
		if err := graphtest.CheckNames(derived); err != nil {
			t.Fatalf("derived from %d of %d entities: %v", cut, len(names), err)
		}
		for e := range names {
			if got, want := derived.NameOrder().Rank(graph.EntityID(e)), g.NameOrder().Rank(graph.EntityID(e)); got != want {
				t.Fatalf("entity %q: derived rank %d, fresh rank %d", names[e], got, want)
			}
		}
	})
}
