// Package previewtables generates preview tables for entity graphs,
// implementing Yan, Hasani, Asudeh and Li, "Generating Preview Tables for
// Entity Graphs" (SIGMOD 2016).
//
// An entity graph is a directed multigraph of named entities connected by
// typed relationships. A preview is a small set of preview tables — each a
// star-shaped subgraph of the schema graph, with an entity type as its key
// attribute and incident relationship types as non-key attributes — chosen
// to maximize an intuitive goodness score under a display-size constraint
// (k tables, n non-key attributes) and optionally a pairwise table-distance
// constraint (tight previews huddle around one concept; diverse previews
// spread across the schema).
//
// Quick start:
//
//	var b previewtables.Builder
//	film := b.Type("FILM")
//	actor := b.Type("FILM ACTOR")
//	acted := b.RelType("Actor", actor, film)
//	b.Edge(b.Entity("Will Smith"), b.Entity("Men in Black"), acted)
//	g, err := b.Build()
//	// ...
//	p, err := previewtables.Discover(g, previewtables.Constraint{K: 1, N: 2})
//	previewtables.Render(os.Stdout, g, &p, 4)
//
// The heavy lifting lives in internal packages; this package is the stable
// public surface: the data model (Builder, EntityGraph, Schema), the
// scoring measures of the paper's Sec. 3, the three discovery algorithms of
// Sec. 5, loading/saving (text triples, an N-Triples subset, and a binary
// snapshot format), and rendering — aligned text, Markdown, Graphviz DOT,
// and the JSON documents served by the previewd HTTP API.
package previewtables

import (
	"io"
	"math/rand"

	"github.com/uta-db/previewtables/internal/core"
	"github.com/uta-db/previewtables/internal/graph"
	"github.com/uta-db/previewtables/internal/render"
	"github.com/uta-db/previewtables/internal/score"
	"github.com/uta-db/previewtables/internal/storage"
	"github.com/uta-db/previewtables/internal/triple"
)

// Data model (see Sec. 2 of the paper).
type (
	// EntityGraph is the directed entity multigraph Gd(Vd, Ed).
	EntityGraph = graph.EntityGraph
	// Builder incrementally assembles an EntityGraph.
	Builder = graph.Builder
	// Schema is the schema graph Gs(Vs, Es) derived from an entity graph.
	Schema = graph.Schema
	// Stats summarizes entity/schema graph sizes.
	Stats = graph.Stats
	// EntityID identifies an entity.
	EntityID = graph.EntityID
	// TypeID identifies an entity type (schema graph vertex).
	TypeID = graph.TypeID
	// RelTypeID identifies a relationship type (schema graph edge).
	RelTypeID = graph.RelTypeID
)

// Previews and constraints (Secs. 2 and 4).
type (
	// Preview is a set of preview tables with a goodness score.
	Preview = core.Preview
	// PreviewTable is one table: a key attribute plus non-key attributes.
	PreviewTable = core.Table
	// Constraint is the size constraint (k, n) plus the optional distance
	// constraint (Mode, D).
	Constraint = core.Constraint
	// Mode selects the preview space: Concise, Tight or Diverse.
	Mode = core.Mode
	// Tuple is one materialized preview-table row.
	Tuple = core.Tuple
)

// Preview space modes.
const (
	Concise = core.Concise
	Tight   = core.Tight
	Diverse = core.Diverse
)

// Scoring measures (Sec. 3).
type (
	// KeyMeasure scores key attributes (entity types).
	KeyMeasure = score.KeyMeasure
	// NonKeyMeasure scores non-key attributes (relationship types).
	NonKeyMeasure = score.NonKeyMeasure
)

// Available measures.
const (
	KeyCoverage   = score.KeyCoverage
	KeyRandomWalk = score.KeyRandomWalk

	NonKeyCoverage = score.NonKeyCoverage
	NonKeyEntropy  = score.NonKeyEntropy
)

// ErrNoPreview is returned when no preview satisfies the constraints.
var ErrNoPreview = core.ErrNoPreview

// ErrSearchBudget is returned by tight/diverse discovery when
// Constraint.MaxCandidates is set and the exact search would exceed it.
var ErrSearchBudget = core.ErrSearchBudget

// Discoverer precomputes scores for one entity graph and answers optimal
// preview discovery queries. Create one per (graph, measure) pair and reuse
// it across constraints; it is safe for concurrent use.
type Discoverer struct {
	g *EntityGraph
	d *core.Discoverer
}

// NewDiscoverer precomputes the chosen scoring measures over g.
func NewDiscoverer(g *EntityGraph, key KeyMeasure, nonKey NonKeyMeasure) *Discoverer {
	set := score.Compute(g, score.DefaultWalkOptions())
	return &Discoverer{g: g, d: core.New(set, core.Options{Key: key, NonKey: nonKey})}
}

// Discover finds an optimal preview using the algorithm best suited to the
// constraint: dynamic programming (Alg. 2) for concise previews, the
// Apriori-style search (Alg. 3) for tight/diverse previews.
func (d *Discoverer) Discover(c Constraint) (Preview, error) { return d.d.Discover(c) }

// BruteForce finds an optimal preview by exhaustive enumeration (Alg. 1).
// Exponential in c.K; useful for validation and small schemas.
func (d *Discoverer) BruteForce(c Constraint) (Preview, error) { return d.d.BruteForce(c) }

// DynamicProgramming finds an optimal concise preview (Alg. 2).
func (d *Discoverer) DynamicProgramming(c Constraint) (Preview, error) {
	return d.d.DynamicProgramming(c)
}

// Apriori finds an optimal tight/diverse preview (Alg. 3).
func (d *Discoverer) Apriori(c Constraint) (Preview, error) { return d.d.Apriori(c) }

// BruteForceParallel is BruteForce distributed over worker goroutines
// (NumCPU when workers <= 0), with deterministic tie-breaking.
func (d *Discoverer) BruteForceParallel(c Constraint, workers int) (Preview, error) {
	return d.d.BruteForceParallel(c, workers)
}

// AllOptimal enumerates every optimal preview in the constrained space —
// Eq. 3's arg max can return a set due to score ties (the paper's own
// Sec. 4 example has two optima). One preview per tied key-attribute
// subset, in deterministic order; exponential in c.K.
func (d *Discoverer) AllOptimal(c Constraint) ([]Preview, error) { return d.d.AllOptimal(c) }

// SuggestSize derives a (k, n) constraint from a display budget in table
// cells (future-work item 4 of the paper's Sec. 8).
func (d *Discoverer) SuggestSize(budgetCells int) Constraint {
	return core.SuggestSize(d.d.Schema(), budgetCells)
}

// DistanceSuggestion recommends tight/diverse distance bounds for a schema.
type DistanceSuggestion = core.DistanceSuggestion

// SuggestDistance inspects the schema's distance structure and recommends
// tight/diverse bounds (future-work item 1).
func (d *Discoverer) SuggestDistance() DistanceSuggestion {
	return core.SuggestDistanceMode(d.d.Schema())
}

// Discover finds an optimal preview with the paper's default measures
// (coverage for both key and non-key attributes).
func Discover(g *EntityGraph, c Constraint) (Preview, error) {
	return NewDiscoverer(g, KeyCoverage, NonKeyCoverage).Discover(c)
}

// SampleTuples materializes up to count randomly sampled tuples of a
// preview table (the paper's display strategy), drawn from rng, or from a
// fresh seed-1 stream when rng is nil. Each call makes one draw per entity
// of the table's key type; the renderers' default stream memoizes its
// samples instead. The tuples' value sets are read-only views of g's
// memory, each in byte-wise name order (the order the renderers show),
// not in the order of its edges: copy one before changing it.
func SampleTuples(g *EntityGraph, t *PreviewTable, count int, rng *rand.Rand) []Tuple {
	if rng == nil {
		rng = rand.New(rand.NewSource(1))
	}
	return core.SampleRandom(g, t, count, rng)
}

// RepresentativeTuples materializes up to count tuples chosen greedily to
// expose as many distinct attribute values as possible (future-work item 2).
func RepresentativeTuples(g *EntityGraph, t *PreviewTable, count int) []Tuple {
	return core.SampleRepresentative(g, t, count)
}

// MediatorInfo describes a multi-way (mediated) non-key attribute.
type MediatorInfo = core.MediatorInfo

// ExpandedValue is one value of a multi-way attribute with its one-hop
// linked entities per participant type.
type ExpandedValue = core.ExpandedValue

// Mediator reports whether a table's non-key attribute is multi-way
// (Appendix B): its target type mediates between the key and further
// entity types, as FILM PERFORMANCE does between FILM, FILM ACTOR and
// FILM CHARACTER.
func Mediator(s *Schema, key TypeID, t *PreviewTable, attrIndex int) (MediatorInfo, bool) {
	return core.Mediator(s, key, t.NonKeys[attrIndex].Inc)
}

// ExpandValues materializes the one-hop expansion of a tuple's values on a
// multi-way attribute. The values come in the tuple's order, byte-wise
// name order, as do the linked entities each relationship type of the
// target type contributes, one relationship type after another.
func ExpandValues(g *EntityGraph, t *PreviewTable, tuple Tuple, attrIndex int) []ExpandedValue {
	return core.ExpandValues(g, t.Key, t.NonKeys[attrIndex].Inc, tuple, attrIndex)
}

// Render writes a preview as aligned text tables with sampled tuples, in
// the style of the paper's Fig. 2.
func Render(w io.Writer, g *EntityGraph, p *Preview, tuples int) error {
	return render.Preview(w, g, p, render.Options{Tuples: tuples})
}

// RenderTable writes one preview table as aligned text.
func RenderTable(w io.Writer, g *EntityGraph, t *PreviewTable, tuples int) error {
	return render.Table(w, g, t, render.Options{Tuples: tuples})
}

// RenderMarkdown writes one preview table as GitHub-flavored Markdown.
func RenderMarkdown(w io.Writer, g *EntityGraph, t *PreviewTable, tuples int) error {
	return render.MarkdownTable(w, g, t, render.Options{Tuples: tuples})
}

// RenderMarkdownPreview writes every table of a preview as Markdown,
// separated by blank lines.
func RenderMarkdownPreview(w io.Writer, g *EntityGraph, p *Preview, tuples int) error {
	return render.MarkdownPreview(w, g, p, render.Options{Tuples: tuples})
}

// JSON-friendly result documents: previews resolved to names instead of
// internal IDs, suitable for encoding/json. These are the response bodies
// served by the previewd HTTP API (internal/service).
type (
	// PreviewDoc is a JSON-friendly preview.
	PreviewDoc = render.PreviewDoc
	// TableDoc is a JSON-friendly preview table.
	TableDoc = render.TableDoc
	// ColumnDoc is a JSON-friendly non-key attribute.
	ColumnDoc = render.ColumnDoc
	// TupleDoc is a JSON-friendly materialized row.
	TupleDoc = render.TupleDoc
)

// PreviewDocument converts a preview into its JSON-friendly document,
// sampling up to tuples rows per table (0 = schema only). Sampling is
// deterministic: the same inputs produce the same document.
func PreviewDocument(g *EntityGraph, p *Preview, tuples int) PreviewDoc {
	return render.PreviewDocument(g, p, render.Options{Tuples: tuples})
}

// TableDocument converts one preview table into its JSON-friendly
// document.
func TableDocument(g *EntityGraph, t *PreviewTable, tuples int) TableDoc {
	return render.TableDocument(g, t, render.Options{Tuples: tuples})
}

// SchemaDOT writes a schema graph in Graphviz DOT (Fig. 3 style).
func SchemaDOT(w io.Writer, s *Schema) error { return render.SchemaDOT(w, s) }

// PreviewDOT writes the schema graph with a preview's star subgraphs
// highlighted.
func PreviewDOT(w io.Writer, s *Schema, p *Preview) error { return render.PreviewDOT(w, s, p) }

// WriteTriples serializes an entity graph in the line-oriented text format.
func WriteTriples(w io.Writer, g *EntityGraph) error { return triple.Marshal(w, g) }

// ReadTriples parses the line-oriented text format.
func ReadTriples(r io.Reader) (*EntityGraph, error) { return triple.Unmarshal(r) }

// NTriplesOptions configures ReadNTriples.
type NTriplesOptions = triple.NTriplesOptions

// ReadNTriples parses an N-Triples subset, mapping rdf:type statements to
// entity types. Set DropLiterals to discard literal-valued statements, as
// the paper's preprocessing did.
func ReadNTriples(r io.Reader, opts NTriplesOptions) (*EntityGraph, error) {
	return triple.ReadNTriples(r, opts)
}

// SaveSnapshot writes a compact binary snapshot of g to path.
func SaveSnapshot(path string, g *EntityGraph) error { return storage.SaveFile(path, g) }

// LoadSnapshot reads a binary snapshot from path.
func LoadSnapshot(path string) (*EntityGraph, error) { return storage.LoadFile(path) }
