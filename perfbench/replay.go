package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"time"

	"github.com/uta-db/previewtables/internal/core"
	"github.com/uta-db/previewtables/internal/graph"
	"github.com/uta-db/previewtables/internal/render"
	"github.com/uta-db/previewtables/internal/score"
	"github.com/uta-db/previewtables/internal/service"
	"github.com/uta-db/previewtables/internal/storage"
)

// The traced run replays the run's own inputs through the layers'
// public functions, timing each call: what one request's span cannot
// split, the replay times call by call.

// constraintOf maps a read spec onto the measures and constraint the
// server would discover it under (with the server's default budget).
func constraintOf(s readSpec) (score.KeyMeasure, score.NonKeyMeasure, core.Constraint) {
	km, nm := score.KeyCoverage, score.NonKeyCoverage
	if s.key == "walk" {
		km = score.KeyRandomWalk
	}
	if s.nonkey == "entropy" {
		nm = score.NonKeyEntropy
	}
	c := core.Constraint{K: s.k, N: s.n, D: s.d, MaxCandidates: service.DefaultSearchBudget}
	switch s.mode {
	case "tight":
		c.Mode = core.Tight
	case "diverse":
		c.Mode = core.Diverse
	default:
		c.Mode = core.Concise
		c.D = 2 // the server's default; concise discovery ignores it
	}
	return km, nm, c
}

type measurePair struct {
	km score.KeyMeasure
	nm score.NonKeyMeasure
}

// readReplay times core discovery and rendering for a graph's read specs.
type readReplay struct {
	discover, preview, markdown []time.Duration
}

// replayReads runs Discoverer.Discover once per distinct constraint the
// specs request, then renders each preview and markdown spec from the
// discovered preview, exactly as the server builds those bodies.
func (rr *readReplay) replayReads(g *graph.EntityGraph, set *score.Set, specs []readSpec, par int) error {
	discs := map[measurePair]*core.Discoverer{}
	type ckey struct {
		mp measurePair
		c  core.Constraint
	}
	previews := map[ckey]core.Preview{}
	for _, s := range specs {
		if s.route != "preview" && s.route != "render" {
			continue
		}
		km, nm, c := constraintOf(s)
		mp := measurePair{km, nm}
		d := discs[mp]
		if d == nil {
			d = core.New(set, core.Options{Key: km, NonKey: nm, Parallelism: par})
			discs[mp] = d
		}
		k := ckey{mp, c}
		pv, ok := previews[k]
		if !ok {
			t0 := time.Now()
			var err error
			pv, err = d.Discover(c)
			rr.discover = append(rr.discover, time.Since(t0))
			if err != nil {
				return fmt.Errorf("replaying %s: %w", s.path(), err)
			}
			previews[k] = pv
		}
		opts := render.Options{Tuples: s.tuples, Rand: rand.New(rand.NewSource(1))}
		switch {
		case s.route == "preview":
			t0 := time.Now()
			_ = render.PreviewDocument(g, &pv, opts)
			rr.preview = append(rr.preview, time.Since(t0))
		case s.format == "markdown":
			var buf bytes.Buffer
			t0 := time.Now()
			err := render.MarkdownPreview(&buf, g, &pv, opts)
			rr.markdown = append(rr.markdown, time.Since(t0))
			if err != nil {
				return fmt.Errorf("replaying %s: %w", s.path(), err)
			}
		}
	}
	return nil
}

// report adds the core and render per-layer metrics.
func (rr *readReplay) report(res *result) {
	add := func(name string, ds []time.Duration, what string) {
		res.layer(name, durMedianMS(ds)*1e3, "us", fmt.Sprintf("median of n=%d %s", len(ds), what))
	}
	add("core.discover_us", rr.discover, "distinct constraints")
	add("render.preview_us", rr.preview, "distinct preview requests")
	add("render.markdown_us", rr.markdown, "distinct markdown renders")
}

// replayLoadAndScore times storage.LoadFile and score.Compute per graph
// snapshot (median of three each) and reports their sums over the
// workload's graphs, the part of setup_s these layers own.
func replayLoadAndScore(res *result, paths map[string]string, par int) error {
	names := make([]string, 0, len(paths))
	for n := range paths {
		names = append(names, n)
	}
	sort.Strings(names)
	var loadTotal, scoreTotal float64
	var loadParts, scoreParts []string
	for _, n := range names {
		var loads, scores []time.Duration
		for i := 0; i < 3; i++ {
			t0 := time.Now()
			g, err := storage.LoadFile(paths[n])
			loads = append(loads, time.Since(t0))
			if err != nil {
				return fmt.Errorf("replaying load of %s: %w", n, err)
			}
			opts := score.DefaultWalkOptions()
			opts.Parallelism = par
			t0 = time.Now()
			score.Compute(g, opts)
			scores = append(scores, time.Since(t0))
		}
		l, s := durMedianMS(loads), durMedianMS(scores)
		loadTotal += l
		scoreTotal += s
		loadParts = append(loadParts, fmt.Sprintf("%s=%.3f", n, l))
		scoreParts = append(scoreParts, fmt.Sprintf("%s=%.3f", n, s))
	}
	res.layer("storage.load_ms", loadTotal, "ms", "sum over graphs of the median of 3: "+strings.Join(loadParts, " "))
	res.layer("score.compute_ms", scoreTotal, "ms", "sum over graphs of the median of 3: "+strings.Join(scoreParts, " "))
	return nil
}
