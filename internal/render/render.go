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
	"slices"
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
			row = append(row, clip(formatCell(g, vals, opts.MaxCellWidth), opts.MaxCellWidth))
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

// byName returns the first n of a cell's entities in byte-wise name
// order, the order sort.Strings gives their names, in small when they
// fit. It sorts no strings: each entity's rank in the graph's name order
// and its id pack into one integer (cellID unpacks the id), so the sort
// compares integers, and entity names are unique, so rank order is name
// order. When n is short of the cell, only the n smallest keys are kept,
// in order, as they come. A cell of one value needs no order, so it does
// not derive one. This is the one cell body of the text, Markdown and
// JSON renderers.
func byName(g *graph.EntityGraph, vals []graph.EntityID, n int, small *[16]uint64) []uint64 {
	keys := small[:0]
	if n > len(small) {
		keys = make([]uint64, 0, n)
	}
	if len(vals) < 2 {
		for _, v := range vals {
			keys = append(keys, uint64(uint32(v)))
		}
		return keys
	}
	order := g.NameOrder()
	key := func(v graph.EntityID) uint64 { return uint64(order.Rank(v))<<32 | uint64(uint32(v)) }
	if n >= len(vals) {
		for _, v := range vals {
			keys = append(keys, key(v))
		}
		slices.Sort(keys)
		return keys
	}
	for _, v := range vals {
		k := key(v)
		if len(keys) == n {
			if k > keys[n-1] {
				continue
			}
			keys = keys[:n-1]
		}
		i, _ := slices.BinarySearch(keys, k)
		keys = slices.Insert(keys, i, k)
	}
	return keys
}

func cellID(key uint64) graph.EntityID { return graph.EntityID(uint32(key)) }

// formatCell renders a value set for the text and Markdown renderers:
// "-" when empty, the bare name for a single value, "{a, b}" for a
// multi-valued cell (Fig. 2), each name on one line. A text cell is
// clipped to width runes, so with width > 0 formatCell stops after the
// first name that takes the cell past width: clip returns the same bytes
// for that prefix as for the whole cell. Each name after the first adds
// at least two runes, so the cell is past width by its width/2+2-th name,
// and only that many names are put in order. A Markdown cell is not
// clipped (width 0).
func formatCell(g *graph.EntityGraph, vals []graph.EntityID, width int) string {
	switch len(vals) {
	case 0:
		return "-"
	case 1:
		return oneLine(g.EntityName(vals[0]))
	}
	n := len(vals)
	if width > 0 {
		n = min(n, width/2+2)
	}
	var small [16]uint64
	keys := byName(g, vals, n, &small)
	var b strings.Builder
	if width <= 0 {
		size := len(keys) * 2
		for _, k := range keys {
			size += len(g.EntityName(cellID(k)))
		}
		b.Grow(size)
	}
	b.WriteByte('{')
	runes := 1
	for i, k := range keys {
		if i > 0 {
			b.WriteString(", ")
			runes += 2
		}
		name := oneLine(g.EntityName(cellID(k)))
		b.WriteString(name)
		if width > 0 {
			if runes += utf8.RuneCountInString(name); runes > width {
				return b.String()
			}
		}
	}
	b.WriteByte('}')
	return b.String()
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
			fmt.Fprintf(w, " %s |", escapeMD(formatCell(g, vals, 0)))
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

// Line endings in names and headers: "\r\n", "\r" and "\n" each become
// one space, so a name cannot split a rendered row. CommonMark counts a
// bare "\r" as a line ending too. A "\r\n" pair is folded to "\n" first,
// then a byte replacer maps what is left; both return a string without
// line endings as it is, without allocating. mdEscaper also escapes
// pipes, keeping a cell inside its Markdown table cell. A Replacer is
// safe for concurrent use.
var (
	lineEnds  = strings.NewReplacer("\r", " ", "\n", " ")
	mdEscaper = strings.NewReplacer("|", "\\|", "\r", " ", "\n", " ")
)

// oneLine flattens a text cell or header onto one line.
func oneLine(s string) string {
	if strings.IndexByte(s, '\n') < 0 && strings.IndexByte(s, '\r') < 0 {
		return s
	}
	return lineEnds.Replace(strings.ReplaceAll(s, "\r\n", "\n"))
}

func escapeMD(s string) string { return mdEscaper.Replace(strings.ReplaceAll(s, "\r\n", "\n")) }
