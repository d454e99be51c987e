package render

import (
	"encoding/json"
	"math"
	"math/rand"
	"strings"
	"testing"

	"github.com/uta-db/previewtables/internal/core"
	"github.com/uta-db/previewtables/internal/fig1"
	"github.com/uta-db/previewtables/internal/score"
	"github.com/uta-db/previewtables/internal/wire"
)

func fig1Preview(t *testing.T, c core.Constraint) (*core.Preview, *core.Discoverer) {
	t.Helper()
	g := fig1.Graph()
	set := score.Compute(g, score.DefaultWalkOptions())
	d := core.New(set, core.Options{Key: score.KeyCoverage, NonKey: score.NonKeyCoverage})
	p, err := d.Discover(c)
	if err != nil {
		t.Fatal(err)
	}
	return &p, d
}

func TestPreviewDocument(t *testing.T) {
	g := fig1.Graph()
	p, _ := fig1Preview(t, core.Constraint{K: 2, N: 3})
	doc := PreviewDocument(g, p, Options{Tuples: 4})

	if doc.Score != p.Score || doc.NonKeyCount != p.NonKeyCount() {
		t.Fatalf("doc totals %g/%d, want %g/%d", doc.Score, doc.NonKeyCount, p.Score, p.NonKeyCount())
	}
	if len(doc.Tables) != 2 {
		t.Fatalf("got %d tables, want 2", len(doc.Tables))
	}
	// Fig. 2's first table: FILM keyed, with the Actor and Genres columns.
	ft := doc.Tables[0]
	if ft.Key != fig1.Film {
		t.Fatalf("first table key %q, want %q", ft.Key, fig1.Film)
	}
	if len(ft.Columns) != 2 || ft.Columns[0].Rel != fig1.RelActor || ft.Columns[1].Rel != fig1.RelGenres {
		t.Fatalf("first table columns: %+v", ft.Columns)
	}
	// The Actor relationship points at FILM, so as a FILM column it is
	// incoming and the header carries the direction annotation.
	if ft.Columns[0].Outgoing || !strings.Contains(ft.Columns[0].Name, fig1.FilmActor) {
		t.Fatalf("Actor column: %+v", ft.Columns[0])
	}
	if ft.Columns[0].Target != fig1.FilmActor {
		t.Fatalf("Actor column target %q, want %q", ft.Columns[0].Target, fig1.FilmActor)
	}
	if len(ft.Tuples) == 0 {
		t.Fatal("no tuples despite Tuples: 4")
	}
	for _, tu := range ft.Tuples {
		if len(tu.Values) != len(ft.Columns) {
			t.Fatalf("tuple %q has %d value sets for %d columns", tu.Key, len(tu.Values), len(ft.Columns))
		}
	}
}

// TestTableDocumentValuesSorted pins the deterministic ordering of
// multi-valued cells.
func TestTableDocumentValuesSorted(t *testing.T) {
	g := fig1.Graph()
	p, _ := fig1Preview(t, core.Constraint{K: 1, N: 2})
	doc := TableDocument(g, &p.Tables[0], Options{Tuples: 100})
	for _, tu := range doc.Tuples {
		for _, vals := range tu.Values {
			for i := 1; i < len(vals); i++ {
				if vals[i-1] > vals[i] {
					t.Fatalf("tuple %q values unsorted: %v", tu.Key, vals)
				}
			}
		}
	}
}

// TestDocJSONShape pins the wire field names — the service API contract.
func TestDocJSONShape(t *testing.T) {
	g := fig1.Graph()
	p, _ := fig1Preview(t, core.Constraint{K: 1, N: 1})
	raw, err := json.Marshal(PreviewDocument(g, p, Options{Tuples: 1}))
	if err != nil {
		t.Fatal(err)
	}
	for _, field := range []string{
		`"score"`, `"non_key_count"`, `"tables"`, `"key"`, `"key_score"`,
		`"columns"`, `"name"`, `"rel"`, `"target"`, `"outgoing"`, `"tuples"`, `"values"`,
	} {
		if !strings.Contains(string(raw), field) {
			t.Errorf("marshaled doc missing %s: %s", field, raw)
		}
	}
}

// TestTableDocumentNoTuples checks the schema-only form omits tuples.
func TestTableDocumentNoTuples(t *testing.T) {
	g := fig1.Graph()
	p, _ := fig1Preview(t, core.Constraint{K: 1, N: 1})
	raw, err := json.Marshal(TableDocument(g, &p.Tables[0], Options{}))
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(raw), `"tuples"`) {
		t.Fatalf("schema-only doc carries tuples: %s", raw)
	}
}

// TestGraphStatsDocShape pins the stats document wire shape: static
// graphs serialize neither mutability nor epoch; mutable graphs carry
// both, including the explicit epoch 0 of a freshly loaded graph.
func TestGraphStatsDocShape(t *testing.T) {
	st := fig1.Graph().Stats()
	static, err := json.Marshal(GraphStats("g", st))
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(static), "epoch") || strings.Contains(string(static), "mutable") {
		t.Fatalf("static stats leak mutability fields: %s", static)
	}
	live, err := json.Marshal(GraphStats("g", st).WithEpoch(0))
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"mutable":true`, `"epoch":0`, `"entities":`} {
		if !strings.Contains(string(live), want) {
			t.Fatalf("mutable stats missing %s: %s", want, live)
		}
	}
}

// docReader decodes a preview document from fuzz input, so names of any
// bytes, floats of every exponent and nil against empty slices meet in
// one document. An exhausted input reads as zeros.
type docReader struct{ data []byte }

func (r *docReader) next() byte {
	if len(r.data) == 0 {
		return 0
	}
	b := r.data[0]
	r.data = r.data[1:]
	return b
}

// specialNames are the strings encoding/json escapes or keeps in ways a
// hand-written encoder can get wrong.
var specialNames = []string{"", "<b>&amp;</b>", "\xe2\x80\xa8", "\xe2\x80\xa9", "\xe2\x80\xaa",
	"\"\\/", "\x00\x1f\x7f", "\b\f\n\r\t", "\xff\xfe", "a\xc3", "\xed\xa0\x80", "\xef\xbf\xbd", "日本"}

func (r *docReader) str() string {
	n := int(r.next())
	if n >= 0xe0 {
		return specialNames[n%len(specialNames)]
	}
	n = min(n%24, len(r.data))
	s := string(r.data[:n])
	r.data = r.data[n:]
	return s
}

// boundaryFloats sit at encoding/json's switches between 'f' and 'e'
// notation and at its failures.
var boundaryFloats = []float64{0, math.Copysign(0, -1), 1e-6, math.Nextafter(1e-6, 0), -1e-6,
	1e21, math.Nextafter(1e21, 0), -1e21, 1e-7, 5e-324, math.MaxFloat64, math.NaN(), math.Inf(1), math.Inf(-1)}

func (r *docReader) float() float64 {
	switch r.next() % 4 {
	case 0:
		return boundaryFloats[int(r.next())%len(boundaryFloats)]
	case 1:
		var bits uint64
		for i := 0; i < 8; i++ {
			bits = bits<<8 | uint64(r.next())
		}
		return math.Float64frombits(bits)
	case 2:
		exp := int(int16(uint16(r.next())<<8|uint16(r.next()))) % 1100
		f := math.Ldexp(1+float64(r.next())/256, exp)
		if r.next()&1 == 1 {
			f = -f
		}
		return f
	}
	return float64(r.next()) / 8
}

func decodeSlice[T any](r *docReader, elem func() T) []T {
	switch r.next() % 4 {
	case 0:
		return nil
	case 1:
		return []T{}
	}
	s := make([]T, 1+int(r.next()%3))
	for i := range s {
		s[i] = elem()
	}
	return s
}

func (r *docReader) doc() PreviewDoc {
	return PreviewDoc{
		Score:       r.float(),
		NonKeyCount: int(int8(r.next())) * 1000003,
		Tables: decodeSlice(r, func() TableDoc {
			return TableDoc{
				Key:      r.str(),
				KeyScore: r.float(),
				Score:    r.float(),
				Columns: decodeSlice(r, func() ColumnDoc {
					return ColumnDoc{Name: r.str(), Rel: r.str(), Target: r.str(), Outgoing: r.next()&1 == 1, Score: r.float()}
				}),
				Tuples: decodeSlice(r, func() TupleDoc {
					return TupleDoc{Key: r.str(), Values: decodeSlice(r, func() []string { return decodeSlice(r, r.str) })}
				}),
			}
		}),
	}
}

// checkDocJSON compares AppendPreviewDoc with encoding/json on d: the
// same bytes, or an error from both with the same text.
func checkDocJSON(t *testing.T, d PreviewDoc) {
	t.Helper()
	want, wantErr := wire.MarshalJSON(d)
	got, err := AppendPreviewDoc([]byte("{"), &d)
	if (err != nil) != (wantErr != nil) || err != nil && err.Error() != wantErr.Error() {
		t.Fatalf("AppendPreviewDoc error %v, encoding/json error %v", err, wantErr)
	}
	if err == nil && string(got) != "{"+strings.TrimSuffix(string(want), "\n") {
		t.Fatalf("AppendPreviewDoc wrote\n%q\nencoding/json wrote\n%q", got[1:], want)
	}
}

// TestAppendPreviewDocMatchesJSON: served documents, and documents
// decoded from seeded random bytes, encode to encoding/json's bytes.
func TestAppendPreviewDocMatchesJSON(t *testing.T) {
	g := fig1.Graph()
	for _, c := range []core.Constraint{{K: 1, N: 1}, {K: 2, N: 3}, {K: 2, N: 6}} {
		p, _ := fig1Preview(t, c)
		for _, tuples := range []int{0, 1, 4, 100} {
			checkDocJSON(t, PreviewDocument(g, p, Options{Tuples: tuples}))
		}
	}
	checkDocJSON(t, PreviewDoc{})
	rng := rand.New(rand.NewSource(1))
	data := make([]byte, 512)
	for i := 0; i < 2000; i++ {
		rng.Read(data[:rng.Intn(len(data))])
		r := docReader{data[:rng.Intn(len(data))]}
		checkDocJSON(t, r.doc())
	}
}

// FuzzPreviewDocJSON holds the hand-written preview document encoder to
// encoding/json on documents decoded from its input: names of any bytes
// (control bytes, invalid UTF-8, U+2028 and U+2029, HTML characters),
// floats across every exponent and at each notation boundary, -0, NaN
// and ±Inf (where both must fail), and nil against empty tables,
// columns, tuples, values and cells.
func FuzzPreviewDocJSON(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("\x00\x0b\x00\x02\x01\x05Key <\x00\x00\x03\x05\x01\x02\x01\x01\x01n\x01r\x01t\x01\x03\x20\x02\x01\x02\x03\xe2\x80\xa8\x02\x01\x01\xe3\x03\x00"))
	f.Add([]byte("\x01\x7f\xf0\x00\x00\x00\x00\x00\x00\x07\x03\x00\x02\x02\x03\x05\xff\xfe\x00\x01\x1f\x00\x0d\x00\x00\x04\x00\x01"))
	f.Add([]byte("\x02\x00\x14\x40\x01\x00\x03\x02\x00\x02\x02\x00\x01\x03\xff\xec\x80\x00\x01\x00\x01\x01\x03\x02\x02\x02\x01\x01\x01"))
	f.Fuzz(func(t *testing.T, data []byte) {
		r := docReader{data}
		checkDocJSON(t, r.doc())
	})
}
