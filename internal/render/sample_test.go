package render

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"github.com/uta-db/previewtables/internal/core"
	"github.com/uta-db/previewtables/internal/freebase"
	"github.com/uta-db/previewtables/internal/graph"
	"github.com/uta-db/previewtables/internal/score"
)

// sizedTables builds one entity type per size, with that many entities,
// and one attribute-less table per type: the sampled keys are then the
// whole observable output of a sample.
func sizedTables(t *testing.T, sizes ...int) (*graph.EntityGraph, []core.Table) {
	t.Helper()
	var b graph.Builder
	tables := make([]core.Table, len(sizes))
	for i, n := range sizes {
		tables[i].Key = b.Type(fmt.Sprintf("T%d", i))
		for e := 0; e < n; e++ {
			b.Entity(fmt.Sprintf("t%d-e%d", i, e), tables[i].Key)
		}
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g, tables
}

func sampledKeys(tuples []core.Tuple) []graph.EntityID {
	keys := make([]graph.EntityID, len(tuples))
	for i, tu := range tuples {
		keys[i] = tu.Key
	}
	return keys
}

// memoOptions is a whole-preview call's default-stream options, with the
// stream drawing through memo m instead of the process-wide one.
func memoOptions(m *positionMemo, tuples int) Options {
	return Options{Tuples: tuples, stream: newSampleStream(m, tuples)}
}

// TestSampleMemoPositions: a table sampled through the memo gets exactly
// the keys core.SampleRandom draws for it when every table so far is
// sampled, in order, from one seed-1 stream. The cases run in order on
// one memo, twice, so later cases hit entries earlier ones stored: keys
// that share a prefix or a last size, and tuple counts that share a
// sequence of sizes, must not collide.
func TestSampleMemoPositions(t *testing.T) {
	sizes := []int{1, 2, 5, 64, 101, 20011}
	g, tables := sizedTables(t, sizes...)
	bySize := map[int]*core.Table{}
	for i, n := range sizes {
		bySize[n] = &tables[i]
	}
	cases := []struct {
		tuples int
		sizes  []int
		stores int // new memo entries on the first pass
	}{
		{5, []int{101}, 1},
		{5, []int{101, 64}, 1}, // a first-table hit, then a second-table miss
		{5, []int{101, 64, 20011}, 1},
		{5, []int{64, 101}, 2}, // ends in 101 as the first case does
		{5, []int{101, 101, 101}, 2},
		{1, []int{101, 64}, 2}, // the first case's sizes at another count
		{2, []int{20011, 64, 101}, 3},
		{2, []int{20011, 64, 5}, 1}, // shares a two-table prefix
		{0, []int{101, 64}, 0},
		{1, []int{1, 2, 64}, 2},
		{100, []int{101, 64}, 1},    // n-1, then > n
		{101, []int{101, 20011}, 1}, // n, then a draw after no draws
		{102, []int{101, 2, 64}, 0},
		{5, []int{1, 2, 5, 64}, 1},
	}
	m := newPositionMemo(maxMemoPositions)
	for pass := 0; pass < 2; pass++ {
		for _, c := range cases {
			before := len(m.entries)
			opts := memoOptions(m, c.tuples)
			ref := rand.New(rand.NewSource(1))
			for i, n := range c.sizes {
				got := sampledKeys(sampleTuples(g, bySize[n], opts))
				want := sampledKeys(core.SampleRandom(g, bySize[n], c.tuples, ref))
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("pass %d, tuples %d, sizes %v: table %d sampled %v, one seed-1 stream gives %v",
						pass, c.tuples, c.sizes, i, firstKeys(got), firstKeys(want))
				}
			}
			stores := c.stores
			if pass == 1 {
				stores = 0
			}
			if n := len(m.entries) - before; n != stores {
				t.Errorf("pass %d, tuples %d, sizes %v: %d new memo entries, want %d", pass, c.tuples, c.sizes, n, stores)
			}
		}
	}
}

func firstKeys(keys []graph.EntityID) []graph.EntityID {
	if len(keys) > 8 {
		return keys[:8]
	}
	return keys
}

// renderJob is one body a renderer produces for a preview: the whole
// preview, or, at table >= 0, one table standalone, which starts its own
// stream. format is json, text or markdown.
type renderJob struct {
	preview, table, tuples int
	format                 string
}

func renderBody(t *testing.T, g *graph.EntityGraph, previews []core.Preview, j renderJob, opts Options) []byte {
	p := &previews[j.preview]
	var buf bytes.Buffer
	var err error
	switch whole := j.table < 0; {
	case j.format == "json" && whole:
		err = json.NewEncoder(&buf).Encode(PreviewDocument(g, p, opts))
	case j.format == "json":
		err = json.NewEncoder(&buf).Encode(TableDocument(g, &p.Tables[j.table], opts))
	case j.format == "text" && whole:
		err = Preview(&buf, g, p, opts)
	case j.format == "text":
		err = Table(&buf, g, &p.Tables[j.table], opts)
	case whole:
		err = MarkdownPreview(&buf, g, p, opts)
	default:
		err = MarkdownTable(&buf, g, &p.Tables[j.table], opts)
	}
	if err != nil {
		t.Errorf("%+v: %v", j, err)
	}
	return buf.Bytes()
}

// filmPreviews discovers previews of several sizes and modes on the
// default-scale film graph, and lists every body they render to at a
// range of tuple counts: each whole preview and each of its tables
// standalone, in all three formats.
func filmPreviews(t *testing.T) (*graph.EntityGraph, []core.Preview, []renderJob) {
	t.Helper()
	g, err := freebase.Generate("film", freebase.GenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	d := core.New(score.Compute(g, score.DefaultWalkOptions()),
		core.Options{Key: score.KeyCoverage, NonKey: score.NonKeyCoverage})
	var previews []core.Preview
	for _, c := range []core.Constraint{
		{K: 1, N: 2}, {K: 2, N: 4}, {K: 3, N: 6}, {K: 4, N: 7}, {K: 5, N: 10},
		{K: 3, N: 6, Mode: core.Tight, D: 2}, {K: 3, N: 6, Mode: core.Diverse, D: 2},
	} {
		p, err := d.Discover(c)
		if err != nil {
			t.Fatalf("%+v: %v", c, err)
		}
		previews = append(previews, p)
	}
	var jobs []renderJob
	for pi, p := range previews {
		for _, tuples := range []int{1, 2, 5, 40} {
			for ti := -1; ti < len(p.Tables); ti++ {
				for _, f := range []string{"json", "text", "markdown"} {
					jobs = append(jobs, renderJob{pi, ti, tuples, f})
				}
			}
		}
	}
	return g, previews, jobs
}

// explicitBodies renders every job with an explicit seed-1 Options.Rand,
// which bypasses the memo and draws every sample.
func explicitBodies(t *testing.T, g *graph.EntityGraph, previews []core.Preview, jobs []renderJob) [][]byte {
	want := make([][]byte, len(jobs))
	for i, j := range jobs {
		want[i] = renderBody(t, g, previews, j, Options{Tuples: j.tuples, Rand: rand.New(rand.NewSource(1))})
	}
	return want
}

// TestDefaultStreamMatchesExplicitRand: through the process-wide memo,
// the default stream renders every body byte-identical to an explicit
// seed-1 Options.Rand, in two shuffled orders, so one body's entries are
// hit by bodies of other previews, formats and standalone tables.
func TestDefaultStreamMatchesExplicitRand(t *testing.T) {
	g, previews, jobs := filmPreviews(t)
	want := explicitBodies(t, g, previews, jobs)
	rng := rand.New(rand.NewSource(7))
	for pass := 0; pass < 2; pass++ {
		for _, i := range rng.Perm(len(jobs)) {
			j := jobs[i]
			if got := renderBody(t, g, previews, j, Options{Tuples: j.tuples}); !bytes.Equal(got, want[i]) {
				t.Fatalf("pass %d, %+v: default stream renders\n%s\nexplicit seed-1 rand renders\n%s", pass, j, got, want[i])
			}
		}
	}
}

// TestSampleMemoConcurrentRenders: goroutines rendering in their own
// orders share one memo, small enough that they evict each other's
// entries, and every body stays byte-identical to the explicit stream's.
// Run with -race.
func TestSampleMemoConcurrentRenders(t *testing.T) {
	g, previews, jobs := filmPreviews(t)
	want := explicitBodies(t, g, previews, jobs)
	m := newPositionMemo(64)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			for _, i := range rand.New(rand.NewSource(seed)).Perm(len(jobs)) {
				j := jobs[i]
				opts := memoOptions(m, j.tuples)
				if seed%2 == 0 {
					opts = Options{Tuples: j.tuples} // the process-wide memo
				}
				if got := renderBody(t, g, previews, j, opts); !bytes.Equal(got, want[i]) {
					t.Errorf("worker %d, %+v: body differs from the explicit stream's", seed, j)
					return
				}
			}
		}(int64(w))
	}
	wg.Wait()
	m.mu.RLock()
	defer m.mu.RUnlock()
	if m.stored > m.max {
		t.Errorf("memo holds %d positions, cap %d", m.stored, m.max)
	}
}

// TestSampleMemoCap fills a memo with the package cap past it: the stored
// positions never exceed the cap and always equal the entries' total, and
// every body, evicted entries' included, matches the explicit stream's.
func TestSampleMemoCap(t *testing.T) {
	const n, tuples = 40000, 20000
	g, tables := sizedTables(t, n)
	tb := &tables[0]
	m := newPositionMemo(maxMemoPositions)
	check := func(count int) {
		t.Helper()
		opts := memoOptions(m, count)
		got := TableDocument(g, tb, opts)
		want := TableDocument(g, tb, Options{Tuples: count, Rand: rand.New(rand.NewSource(1))})
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("tuples %d: memoized document differs from the explicit stream's", count)
		}
		total := 0
		for _, p := range m.entries {
			total += len(p)
		}
		if m.stored != total || m.stored > maxMemoPositions {
			t.Fatalf("tuples %d: memo counts %d positions, holds %d, cap %d", count, m.stored, total, maxMemoPositions)
		}
	}
	const fills = maxMemoPositions/tuples + 3
	for i := 0; i < fills; i++ {
		check(tuples + i)
	}
	if len(m.entries) >= fills {
		t.Fatalf("%d entries of %d positions each: nothing was evicted", len(m.entries), tuples)
	}
	for i := 0; i < fills; i++ {
		check(tuples + i)
	}
	// A sample larger than the cap is drawn and rendered, never stored.
	big := newPositionMemo(tuples - 1)
	m = big
	check(tuples)
	if len(big.entries) != 0 {
		t.Errorf("a %d-position sample was stored under a %d-position cap", tuples, big.max)
	}
}
