// Package render turns previews into human-readable artifacts: plain-text
// preview tables in the style of the paper's Fig. 2 (key attribute
// underlined by convention of an ASCII marker row, sampled tuples,
// multi-valued cells in braces, empty cells as "-"), Markdown variants for
// documentation, and Graphviz DOT output of schema graphs in the style of
// Fig. 3.
package render

import (
	"fmt"
	"io"
	"math/rand"
	"sort"
	"strings"
	"unicode/utf8"

	"github.com/uta-db/previewtables/internal/core"
	"github.com/uta-db/previewtables/internal/graph"
)

// Options controls preview rendering.
type Options struct {
	// Tuples is the number of sample tuples per table (0 renders schema
	// rows only). The paper displays "a few randomly sampled tuples".
	Tuples int
	// Representative selects coverage-greedy tuples instead of random ones
	// (the future-work extension).
	Representative bool
	// Rand drives random sampling, at one draw per entity of each
	// table's key type. nil uses the default stream: a fresh seed-1
	// stream for deterministic output. A whole-preview call (Preview,
	// MarkdownPreview, PreviewDocument) draws every table's sample from
	// that one stream, as the previewd render and preview routes do, and
	// the default stream's samples are memoized process-wide (sample.go),
	// so repeating one costs no draws.
	Rand *rand.Rand
	// MaxCellWidth truncates long cells (0 = 40).
	MaxCellWidth int

	stream *sampleStream // the default stream, when Rand is nil
}

func (o Options) withDefaults() Options {
	if o.MaxCellWidth <= 0 {
		o.MaxCellWidth = 40
	}
	if o.Rand == nil && o.stream == nil {
		o.stream = newSampleStream(defaultMemo, o.Tuples)
	}
	return o
}

// ColumnHeader names a non-key attribute column: the relationship surface
// name, annotated with its direction when the relationship is incoming
// (edges from and to an entity are both preview-table attributes, and two
// relationship types may share a surface name).
func ColumnHeader(s *graph.Schema, c core.Candidate) string {
	rt := s.RelType(c.Inc.Rel)
	if c.Inc.Outgoing {
		return rt.Name
	}
	return rt.Name + " (of " + s.TypeName(rt.From) + ")"
}

// Table renders one preview table as text.
func Table(w io.Writer, g *graph.EntityGraph, t *core.Table, opts Options) error {
	opts = opts.withDefaults()
	s := g.Schema()

	headers := make([]string, 0, len(t.NonKeys)+1)
	headers = append(headers, g.TypeName(t.Key))
	for _, c := range t.NonKeys {
		headers = append(headers, ColumnHeader(s, c))
	}

	tuples := sampleTuples(g, t, opts)
	rows := make([][]string, 0, len(tuples))
	for _, tu := range tuples {
		row := make([]string, 0, len(headers))
		row = append(row, clip(g.EntityName(tu.Key), opts.MaxCellWidth))
		for _, vals := range tu.Values {
			row = append(row, clip(formatCell(g, vals), opts.MaxCellWidth))
		}
		rows = append(rows, row)
	}
	return writeGrid(w, headers, rows, true)
}

// Preview renders a whole preview: every table, separated by blank lines,
// headed by the preview score.
func Preview(w io.Writer, g *graph.EntityGraph, p *core.Preview, opts Options) error {
	opts = opts.withDefaults()
	fmt.Fprintf(w, "preview: %d tables, %d non-key attributes, score %.4g\n\n",
		len(p.Tables), p.NonKeyCount(), p.Score)
	for i := range p.Tables {
		if i > 0 {
			fmt.Fprintln(w)
		}
		if err := Table(w, g, &p.Tables[i], opts); err != nil {
			return err
		}
	}
	return nil
}

// sampleTuples materializes a table's display tuples per opts: none,
// random (the paper's strategy), or coverage-greedy representative. The
// single sampling point for every renderer, so text, Markdown and JSON
// output cannot diverge for identical options.
func sampleTuples(g *graph.EntityGraph, t *core.Table, opts Options) []core.Tuple {
	switch {
	case opts.Tuples <= 0:
		return nil
	case opts.Representative:
		return core.SampleRepresentative(g, t, opts.Tuples)
	case opts.Rand != nil:
		return core.SampleRandom(g, t, opts.Tuples, opts.Rand)
	}
	return core.SampleAt(g, t, opts.stream.next(len(g.EntitiesOfType(t.Key))))
}

// formatCell renders a value set: "-" when empty, the bare name for a
// single value, "{a, b}" for multi-valued cells (Fig. 2).
func formatCell(g *graph.EntityGraph, vals []graph.EntityID) string {
	switch len(vals) {
	case 0:
		return "-"
	case 1:
		return g.EntityName(vals[0])
	}
	names := make([]string, len(vals))
	for i, v := range vals {
		names[i] = g.EntityName(v)
	}
	sort.Strings(names)
	return "{" + strings.Join(names, ", ") + "}"
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

// MarkdownTable renders one preview table as GitHub-flavored Markdown with
// the key attribute bolded.
func MarkdownTable(w io.Writer, g *graph.EntityGraph, t *core.Table, opts Options) error {
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
			fmt.Fprintf(w, " %s |", escapeMD(formatCell(g, vals)))
		}
		fmt.Fprintln(w)
	}
	return nil
}

// MarkdownPreview renders every table of a preview as Markdown,
// separated by blank lines — the multi-table counterpart of
// MarkdownTable, as Preview is of Table.
func MarkdownPreview(w io.Writer, g *graph.EntityGraph, p *core.Preview, opts Options) error {
	opts = opts.withDefaults()
	for i := range p.Tables {
		if i > 0 {
			fmt.Fprintln(w)
		}
		if err := MarkdownTable(w, g, &p.Tables[i], opts); err != nil {
			return err
		}
	}
	return nil
}

// SchemaDOT writes the schema graph as Graphviz DOT (Fig. 3 style):
// entity types as boxes, relationship types as labeled directed edges.
func SchemaDOT(w io.Writer, s *graph.Schema) error {
	fmt.Fprintln(w, "digraph schema {")
	fmt.Fprintln(w, "  rankdir=LR;")
	fmt.Fprintln(w, "  node [shape=box];")
	for i := 0; i < s.NumTypes(); i++ {
		fmt.Fprintf(w, "  t%d [label=%q];\n", i, s.TypeName(graph.TypeID(i)))
	}
	for i := 0; i < s.NumRelTypes(); i++ {
		rt := s.RelType(graph.RelTypeID(i))
		fmt.Fprintf(w, "  t%d -> t%d [label=%q];\n", rt.From, rt.To, rt.Name)
	}
	_, err := fmt.Fprintln(w, "}")
	return err
}

// PreviewDOT writes the schema graph with the preview's star subgraphs
// highlighted: key attributes doubled, chosen non-key relationships bold.
func PreviewDOT(w io.Writer, s *graph.Schema, p *core.Preview) error {
	keyed := map[graph.TypeID]bool{}
	chosen := map[graph.RelTypeID]bool{}
	for _, t := range p.Tables {
		keyed[t.Key] = true
		for _, c := range t.NonKeys {
			chosen[c.Inc.Rel] = true
		}
	}
	fmt.Fprintln(w, "digraph preview {")
	fmt.Fprintln(w, "  rankdir=LR;")
	for i := 0; i < s.NumTypes(); i++ {
		shape := "box"
		if keyed[graph.TypeID(i)] {
			shape = "doubleoctagon"
		}
		fmt.Fprintf(w, "  t%d [label=%q, shape=%s];\n", i, s.TypeName(graph.TypeID(i)), shape)
	}
	for i := 0; i < s.NumRelTypes(); i++ {
		rt := s.RelType(graph.RelTypeID(i))
		style := "dashed"
		if chosen[graph.RelTypeID(i)] {
			style = "bold"
		}
		fmt.Fprintf(w, "  t%d -> t%d [label=%q, style=%s];\n", rt.From, rt.To, rt.Name, style)
	}
	_, err := fmt.Fprintln(w, "}")
	return err
}

// mdEscaper keeps a cell inside its Markdown table cell: pipes escaped,
// newlines flattened. A Replacer is safe for concurrent use.
var mdEscaper = strings.NewReplacer("|", "\\|", "\n", " ")

func escapeMD(s string) string { return mdEscaper.Replace(s) }
