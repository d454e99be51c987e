// JSON documents. The text and Markdown renderers target terminals and
// docs; services need the same preview content as structured data. The
// *Doc types are the wire representation served by internal/service and
// re-exported from the root package: names instead of internal IDs, column
// headers disambiguated exactly like the text renderer, and deterministic
// value ordering so responses are stable across runs. A preview document
// is built (PreviewDocument) and then encoded (AppendPreviewDoc) in two
// steps; the encoder is written by hand and writes encoding/json's bytes.

package render

import (
	"strconv"

	"github.com/uta-db/previewtables/internal/core"
	"github.com/uta-db/previewtables/internal/graph"
	"github.com/uta-db/previewtables/internal/wire"
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

// AppendPreviewDoc appends d's JSON encoding to dst: byte for byte what
// encoding/json writes for d with HTML escaping off (wire.MarshalJSON),
// without the trailing newline, so a response can embed it. Fields come
// in struct order; a nil slice is null and an empty one []; tuples is
// left out when it has none. A NaN or infinite score fails, as it fails
// in encoding/json; the returned bytes are then incomplete.
func AppendPreviewDoc(dst []byte, d *PreviewDoc) ([]byte, error) {
	dst = append(dst, `{"score":`...)
	dst, err := wire.AppendJSONFloat(dst, d.Score)
	if err != nil {
		return dst, err
	}
	dst = append(dst, `,"non_key_count":`...)
	dst = strconv.AppendInt(dst, int64(d.NonKeyCount), 10)
	dst = append(dst, `,"tables":`...)
	if d.Tables == nil {
		dst = append(dst, "null"...)
	} else {
		dst = append(dst, '[')
		for i := range d.Tables {
			if i > 0 {
				dst = append(dst, ',')
			}
			if dst, err = appendTableDoc(dst, &d.Tables[i]); err != nil {
				return dst, err
			}
		}
		dst = append(dst, ']')
	}
	return append(dst, '}'), nil
}

func appendTableDoc(dst []byte, t *TableDoc) ([]byte, error) {
	dst = append(dst, `{"key":`...)
	dst = wire.AppendJSONString(dst, t.Key)
	dst = append(dst, `,"key_score":`...)
	dst, err := wire.AppendJSONFloat(dst, t.KeyScore)
	if err != nil {
		return dst, err
	}
	dst = append(dst, `,"score":`...)
	if dst, err = wire.AppendJSONFloat(dst, t.Score); err != nil {
		return dst, err
	}
	dst = append(dst, `,"columns":`...)
	if t.Columns == nil {
		dst = append(dst, "null"...)
	} else {
		dst = append(dst, '[')
		for i := range t.Columns {
			c := &t.Columns[i]
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = append(dst, `{"name":`...)
			dst = wire.AppendJSONString(dst, c.Name)
			dst = append(dst, `,"rel":`...)
			dst = wire.AppendJSONString(dst, c.Rel)
			dst = append(dst, `,"target":`...)
			dst = wire.AppendJSONString(dst, c.Target)
			dst = append(dst, `,"outgoing":`...)
			dst = strconv.AppendBool(dst, c.Outgoing)
			dst = append(dst, `,"score":`...)
			if dst, err = wire.AppendJSONFloat(dst, c.Score); err != nil {
				return dst, err
			}
			dst = append(dst, '}')
		}
		dst = append(dst, ']')
	}
	if len(t.Tuples) > 0 {
		dst = append(dst, `,"tuples":[`...)
		for i := range t.Tuples {
			tu := &t.Tuples[i]
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = append(dst, `{"key":`...)
			dst = wire.AppendJSONString(dst, tu.Key)
			dst = append(dst, `,"values":`...)
			if tu.Values == nil {
				dst = append(dst, "null"...)
			} else {
				dst = append(dst, '[')
				for j, names := range tu.Values {
					if j > 0 {
						dst = append(dst, ',')
					}
					dst = appendStrings(dst, names)
				}
				dst = append(dst, ']')
			}
			dst = append(dst, '}')
		}
		dst = append(dst, ']')
	}
	return append(dst, '}'), nil
}

func appendStrings(dst []byte, ss []string) []byte {
	if ss == nil {
		return append(dst, "null"...)
	}
	dst = append(dst, '[')
	for i, s := range ss {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = wire.AppendJSONString(dst, s)
	}
	return append(dst, ']')
}
