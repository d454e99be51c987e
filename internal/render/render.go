// Package render turns previews into human-readable artifacts: plain-text
// preview tables in the style of the paper's Fig. 2 (key attribute
// underlined by convention of an ASCII marker row, sampled tuples,
// multi-valued cells in braces, empty cells as "-"), Markdown variants for
// documentation, and Graphviz DOT output of schema graphs in the style of
// Fig. 3.
package render

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"slices"
	"strconv"
	"strings"
	"sync"
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
	return writeVia(w, func(b []byte) []byte { return appendTable(b, g, t, opts) })
}

// Preview renders a whole preview: every table, separated by blank lines,
// headed by the preview score.
func Preview(w io.Writer, g *graph.EntityGraph, p *core.Preview, opts Options) error {
	return writeVia(w, func(b []byte) []byte { return AppendPreview(b, g, p, opts) })
}

// AppendPreview appends the text Preview writes to dst.
func AppendPreview(dst []byte, g *graph.EntityGraph, p *core.Preview, opts Options) []byte {
	opts = opts.withDefaults()
	dst = append(dst, "preview: "...)
	dst = strconv.AppendInt(dst, int64(len(p.Tables)), 10)
	dst = append(dst, " tables, "...)
	dst = strconv.AppendInt(dst, int64(p.NonKeyCount()), 10)
	dst = append(dst, " non-key attributes, score "...)
	dst = strconv.AppendFloat(dst, p.Score, 'g', 4, 64)
	dst = append(dst, "\n\n"...)
	for i := range p.Tables {
		if i > 0 {
			dst = append(dst, '\n')
		}
		dst = appendTable(dst, g, &p.Tables[i], opts)
	}
	return dst
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

// appendCell appends a value set's text or Markdown cell, each name
// through name (appendOneLine for text; appendName for Markdown, whose
// cell is escaped whole afterwards): "-" when empty, the bare name for a
// single value, "{a, b}" for a multi-valued cell (Fig. 2). A text cell
// is clipped to width runes, so with width > 0 appendCell stops after
// the first name that takes the cell past width: clipping that prefix
// gives the bytes clipping the whole cell gives. Each name after the
// first adds at least two runes, so the cell is past width by its
// width/2+2-th name, and only that many names are put in order. A
// Markdown cell is not clipped (width 0).
func appendCell(dst []byte, g *graph.EntityGraph, vals []graph.EntityID, width int, name func([]byte, string) []byte) []byte {
	switch len(vals) {
	case 0:
		return append(dst, '-')
	case 1:
		return name(dst, g.EntityName(vals[0]))
	}
	n := len(vals)
	if width > 0 {
		n = min(n, width/2+2)
	}
	var small [16]uint64
	keys := byName(g, vals, n, &small)
	dst = append(dst, '{')
	runes := 1
	for i, k := range keys {
		if i > 0 {
			dst = append(dst, ", "...)
			runes += 2
		}
		mark := len(dst)
		dst = name(dst, g.EntityName(cellID(k)))
		if width > 0 {
			if runes += utf8.RuneCount(dst[mark:]); runes > width {
				return dst
			}
		}
	}
	return append(dst, '}')
}

// grid lays out one text table before writing it, so every column's
// width is known before the first line: cells holds the table's cells
// back to back, headers first and then row by row, and spans[i] says
// where cell i ends and how many runes it has. Grids are pooled, so a
// table renders without allocating once the pool is warm.
type grid struct {
	cells  []byte
	spans  []span
	widths []int
}

type span struct{ end, runes int }

var grids = sync.Pool{New: func() any { return new(grid) }}

// appendTable appends one table's text: the header, a separator row
// whose key column is '=' (the ASCII stand-in for the paper's
// underlined key attribute) and '-' elsewhere, and one row per sampled
// tuple. Cells are aligned by rune count, two spaces apart, and every
// line loses its trailing spaces.
func appendTable(dst []byte, g *graph.EntityGraph, t *core.Table, opts Options) []byte {
	gr := grids.Get().(*grid)
	defer grids.Put(gr)
	gr.cells, gr.spans = gr.cells[:0], gr.spans[:0]
	s := g.Schema()
	gr.cells = appendOneLine(gr.cells, g.TypeName(t.Key))
	gr.end(0)
	for _, c := range t.NonKeys {
		gr.cells = appendOneLine(gr.cells, ColumnHeader(s, c))
		gr.end(0)
	}
	width := opts.MaxCellWidth
	for _, tu := range sampleTuples(g, t, opts) {
		gr.cells = appendOneLine(gr.cells, g.EntityName(tu.Key))
		gr.end(width)
		for _, vals := range tu.Values {
			gr.cells = appendCell(gr.cells, g, vals, width, appendOneLine)
			gr.end(width)
		}
	}

	cols := len(t.NonKeys) + 1
	gr.widths = append(gr.widths[:0], make([]int, cols)...)
	for i, sp := range gr.spans {
		gr.widths[i%cols] = max(gr.widths[i%cols], sp.runes)
	}
	dst = gr.appendRow(dst, 0, cols)
	line := len(dst)
	for c, w := range gr.widths {
		ch := byte('=')
		if c > 0 {
			dst = append(dst, "  "...)
			ch = '-'
		}
		dst = appendRepeat(dst, ch, w)
	}
	dst = endLine(dst, line)
	for first := cols; first < len(gr.spans); first += cols {
		dst = gr.appendRow(dst, first, cols)
	}
	return dst
}

// appendRow appends the line of the cols cells from cell first on, each
// padded to its column's width and two spaces from the next.
func (gr *grid) appendRow(dst []byte, first, cols int) []byte {
	line, start := len(dst), 0
	if first > 0 {
		start = gr.spans[first-1].end
	}
	for c, sp := range gr.spans[first : first+cols] {
		if c > 0 {
			dst = appendRepeat(dst, ' ', gr.widths[c-1]-gr.spans[first+c-1].runes+2)
		}
		dst = append(dst, gr.cells[start:sp.end]...)
		start = sp.end
	}
	return endLine(dst, line)
}

// end closes the cell appended since the previous one, clipped to max
// runes when max > 0: a longer cell keeps max-1 runes and ends in "…"
// (a max of 1 keeps one rune and no ellipsis). It never splits a rune.
func (gr *grid) end(max int) {
	start := 0
	if n := len(gr.spans); n > 0 {
		start = gr.spans[n-1].end
	}
	runes := utf8.RuneCount(gr.cells[start:])
	if max > 0 && runes > max {
		keep, ellipsis := max-1, "…"
		if max <= 1 {
			keep, ellipsis = max, ""
		}
		end := start
		for ; keep > 0; keep-- {
			_, size := utf8.DecodeRune(gr.cells[end:])
			end += size
		}
		gr.cells = append(gr.cells[:end], ellipsis...)
		runes = max
	}
	gr.spans = append(gr.spans, span{len(gr.cells), runes})
}

// MarkdownTable renders one preview table as GitHub-flavored Markdown with
// the key attribute bolded.
func MarkdownTable(w io.Writer, g *graph.EntityGraph, t *core.Table, opts Options) error {
	opts = opts.withDefaults()
	return writeVia(w, func(b []byte) []byte { return appendMarkdownTable(b, g, t, opts) })
}

// MarkdownPreview renders every table of a preview as Markdown,
// separated by blank lines — the multi-table counterpart of
// MarkdownTable, as Preview is of Table.
func MarkdownPreview(w io.Writer, g *graph.EntityGraph, p *core.Preview, opts Options) error {
	return writeVia(w, func(b []byte) []byte { return AppendMarkdownPreview(b, g, p, opts) })
}

// AppendMarkdownPreview appends the Markdown MarkdownPreview writes to
// dst.
func AppendMarkdownPreview(dst []byte, g *graph.EntityGraph, p *core.Preview, opts Options) []byte {
	opts = opts.withDefaults()
	for i := range p.Tables {
		if i > 0 {
			dst = append(dst, '\n')
		}
		dst = appendMarkdownTable(dst, g, &p.Tables[i], opts)
	}
	return dst
}

func appendMarkdownTable(dst []byte, g *graph.EntityGraph, t *core.Table, opts Options) []byte {
	s := g.Schema()
	dst = append(dst, "| **"...)
	dst = appendMD(dst, g.TypeName(t.Key))
	dst = append(dst, "** |"...)
	for _, c := range t.NonKeys {
		dst = append(dst, ' ')
		dst = appendMD(dst, ColumnHeader(s, c))
		dst = append(dst, " |"...)
	}
	dst = append(dst, "\n|---|"...)
	for range t.NonKeys {
		dst = append(dst, "---|"...)
	}
	dst = append(dst, '\n')
	for _, tu := range sampleTuples(g, t, opts) {
		dst = append(dst, "| "...)
		dst = appendMD(dst, g.EntityName(tu.Key))
		dst = append(dst, " |"...)
		for _, vals := range tu.Values {
			dst = append(dst, ' ')
			cell := len(dst)
			dst = escapeMDFrom(appendCell(dst, g, vals, 0, appendName), cell)
			dst = append(dst, " |"...)
		}
		dst = append(dst, '\n')
	}
	return dst
}

// bufs holds the io.Writer renderers' output buffers: each appends its
// whole output to one and writes it in a single call.
var bufs = sync.Pool{New: func() any { return new([]byte) }}

func writeVia(w io.Writer, render func([]byte) []byte) error {
	b := bufs.Get().(*[]byte)
	defer bufs.Put(b)
	*b = render((*b)[:0])
	_, err := w.Write(*b)
	return err
}

func appendRepeat(dst []byte, c byte, n int) []byte {
	for ; n > 0; n-- {
		dst = append(dst, c)
	}
	return dst
}

// endLine trims the trailing spaces of the line that starts at
// dst[line] and ends it.
func endLine(dst []byte, line int) []byte {
	for len(dst) > line && dst[len(dst)-1] == ' ' {
		dst = dst[:len(dst)-1]
	}
	return append(dst, '\n')
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

func appendOneLine(dst []byte, s string) []byte { return append(dst, oneLine(s)...) }

func appendName(dst []byte, s string) []byte { return append(dst, s...) }

// appendMD appends s as a Markdown cell.
func appendMD(dst []byte, s string) []byte { return escapeMDFrom(append(dst, s...), len(dst)) }

// escapeMDFrom escapes dst[start:] as escapeMD does, when it holds a pipe
// or a line ending. Escaping a whole multi-valued cell equals escaping
// each name: the ", " between two names holds neither, and no "\r\n"
// pair spans it.
func escapeMDFrom(dst []byte, start int) []byte {
	tail := dst[start:]
	if bytes.IndexByte(tail, '|') < 0 && bytes.IndexByte(tail, '\r') < 0 && bytes.IndexByte(tail, '\n') < 0 {
		return dst
	}
	return append(dst[:start], escapeMD(string(tail))...)
}
