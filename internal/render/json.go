// JSON documents. The text and Markdown renderers target terminals and
// docs; services need the same preview content as structured data. The
// *Doc types are the wire representation served by internal/service and
// re-exported from the root package: names instead of internal IDs, column
// headers disambiguated exactly like the text renderer, and deterministic
// value ordering so responses are stable across runs.

package render

import (
	"github.com/uta-db/previewtables/internal/core"
	"github.com/uta-db/previewtables/internal/graph"
)

// GraphStatsDoc is the JSON shape of one graph's size statistics (the
// paper's Table 2 row), plus the serving-layer mutability metadata: a
// graph registered for live updates reports Mutable and its current
// mutation Epoch. Epoch is a pointer so epoch 0 — the freshly loaded
// state of a mutable graph — still serializes, while immutable graphs
// omit both fields.
type GraphStatsDoc struct {
	Name     string      `json:"name"`
	Entities int         `json:"entities"`
	Edges    int         `json:"edges"`
	Types    int         `json:"types"`
	RelTypes int         `json:"rel_types"`
	Mutable  bool        `json:"mutable,omitempty"`
	Epoch    *uint64     `json:"epoch,omitempty"`
	Anytime  *AnytimeDoc `json:"anytime,omitempty"`
}

// AnytimeDoc reports anytime-discovery convergence for a mutable graph:
// whether background refinement has caught up with the current epoch,
// and the last epoch it finished refining. Present only on graphs that
// have served at least one anytime request.
type AnytimeDoc struct {
	Converged    bool   `json:"converged"`
	RefinedEpoch uint64 `json:"refined_epoch"`
}

// GraphStats builds the stats document for an immutable graph.
func GraphStats(name string, st graph.Stats) GraphStatsDoc {
	return GraphStatsDoc{
		Name:     name,
		Entities: st.Entities,
		Edges:    st.Edges,
		Types:    st.Types,
		RelTypes: st.RelTypes,
	}
}

// WithEpoch marks the document as describing a mutable graph at the given
// mutation epoch.
func (d GraphStatsDoc) WithEpoch(epoch uint64) GraphStatsDoc {
	d.Mutable = true
	d.Epoch = &epoch
	return d
}

// WithAnytime attaches anytime-convergence state: whether background
// refinement has converged on the document's epoch, and the last refined
// epoch.
func (d GraphStatsDoc) WithAnytime(converged bool, refinedEpoch uint64) GraphStatsDoc {
	d.Anytime = &AnytimeDoc{Converged: converged, RefinedEpoch: refinedEpoch}
	return d
}

// PreviewDoc is a JSON-friendly preview: Eq. 1's score plus one TableDoc
// per preview table.
type PreviewDoc struct {
	Score       float64    `json:"score"`
	NonKeyCount int        `json:"non_key_count"`
	Tables      []TableDoc `json:"tables"`
}

// TableDoc is a JSON-friendly preview table: the key attribute (entity
// type) with its score S(τ), the chosen non-key columns, the table score
// S(T) of Eq. 2, and optionally sampled tuples.
type TableDoc struct {
	Key      string      `json:"key"`
	KeyScore float64     `json:"key_score"`
	Score    float64     `json:"score"`
	Columns  []ColumnDoc `json:"columns"`
	Tuples   []TupleDoc  `json:"tuples,omitempty"`
}

// ColumnDoc is one non-key attribute of a table: the display header (as in
// the text renderer, annotated with direction when the relationship is
// incoming), the raw relationship surface name, the entity type at the
// other end, the orientation, and the non-key score Sτ(γ).
type ColumnDoc struct {
	Name     string  `json:"name"`
	Rel      string  `json:"rel"`
	Target   string  `json:"target"`
	Outgoing bool    `json:"outgoing"`
	Score    float64 `json:"score"`
}

// TupleDoc is one materialized row: the key entity's name and, aligned
// with the table's columns, the related entity names: an empty slice for
// an empty cell, and for a multi-valued cell every name in byte-wise
// order, the order the text and Markdown renderers show. Names appear as
// stored; only the text and Markdown renderers flatten line endings.
type TupleDoc struct {
	Key    string     `json:"key"`
	Values [][]string `json:"values"`
}

// PreviewDocument builds the JSON document for a whole preview. Tuple
// sampling follows opts exactly as the text renderer does.
func PreviewDocument(g *graph.EntityGraph, p *core.Preview, opts Options) PreviewDoc {
	opts = opts.withDefaults()
	doc := PreviewDoc{
		Score:       p.Score,
		NonKeyCount: p.NonKeyCount(),
		Tables:      make([]TableDoc, len(p.Tables)),
	}
	for i := range p.Tables {
		doc.Tables[i] = TableDocument(g, &p.Tables[i], opts)
	}
	return doc
}

// TableDocument builds the JSON document for one preview table.
func TableDocument(g *graph.EntityGraph, t *core.Table, opts Options) TableDoc {
	opts = opts.withDefaults()
	s := g.Schema()
	doc := TableDoc{
		Key:      g.TypeName(t.Key),
		KeyScore: t.KeyScore,
		Score:    t.Score,
		Columns:  make([]ColumnDoc, len(t.NonKeys)),
	}
	for i, c := range t.NonKeys {
		rt := s.RelType(c.Inc.Rel)
		doc.Columns[i] = ColumnDoc{
			Name:     ColumnHeader(s, c),
			Rel:      rt.Name,
			Target:   s.TypeName(s.OtherEnd(c.Inc)),
			Outgoing: c.Inc.Outgoing,
			Score:    c.Score,
		}
	}
	if tuples := sampleTuples(g, t, opts); len(tuples) > 0 {
		doc.Tuples = make([]TupleDoc, len(tuples))
		for i, tu := range tuples {
			doc.Tuples[i] = tupleDoc(g, tu)
		}
	}
	return doc
}

func tupleDoc(g *graph.EntityGraph, tu core.Tuple) TupleDoc {
	d := TupleDoc{Key: g.EntityName(tu.Key), Values: make([][]string, len(tu.Values))}
	for i, vals := range tu.Values {
		names := make([]string, len(vals))
		var small [16]uint64
		for j, k := range byName(g, vals, len(vals), &small) {
			names[j] = g.EntityName(cellID(k))
		}
		d.Values[i] = names
	}
	return d
}
