package service

import (
	"fmt"
	"net/url"
	"strconv"
	"strings"

	"github.com/uta-db/previewtables/internal/core"
	"github.com/uta-db/previewtables/internal/score"
)

// Request-size caps. Previews are display-bounded by definition (the
// paper's k and n are single digits), so generous ceilings cost nothing
// for real clients while keeping one unauthenticated GET from driving
// the dynamic program's O(types·k·n) time and memory — or the response
// body — arbitrarily large. Tight/diverse requests are additionally
// bounded by Server.SearchBudget: the exact Apriori search is
// combinatorial in k when the distance constraint degenerates, which no
// cap on k alone can contain.
const (
	// maxK bounds k, the number of preview tables.
	maxK = 64
	// maxN bounds n, the total non-key attribute budget.
	maxN = 256
	// maxTuples bounds the tuples= parameter so one request cannot ask
	// the server to materialize an entire large graph into a response.
	maxTuples = 1000
)

// previewParams is a validated preview/render request: the core
// constraint, the scoring measures, and presentation knobs.
type previewParams struct {
	Constraint core.Constraint
	Key        score.KeyMeasure
	NonKey     score.NonKeyMeasure
	Tuples     int
	// Representative selects coverage-greedy tuple sampling instead of
	// the paper's random sampling.
	Representative bool
	// Anytime selects anytime discovery (preview route only): answer
	// immediately with a budget-bounded best-so-far while a background
	// refinement converges on the exact preview.
	Anytime bool
}

// parsePreviewParams maps query parameters onto previewParams, mirroring
// the previewgen CLI flags: k, n, mode, d, key, nonkey, tuples, rep.
// Defaults are previewgen's: k=3 n=9 concise coverage/coverage, no
// tuples. Every failure is a user error (HTTP 400).
func parsePreviewParams(q url.Values) (previewParams, error) {
	p := previewParams{
		Constraint: core.Constraint{K: 3, N: 9, Mode: core.Concise, D: 2},
		Key:        score.KeyCoverage,
		NonKey:     score.NonKeyCoverage,
	}
	var err error
	if p.Constraint.K, err = intParam(q, "k", p.Constraint.K); err != nil {
		return p, err
	}
	if p.Constraint.N, err = intParam(q, "n", p.Constraint.N); err != nil {
		return p, err
	}
	if p.Constraint.D, err = intParam(q, "d", p.Constraint.D); err != nil {
		return p, err
	}
	if p.Constraint.K > maxK {
		return p, fmt.Errorf("k=%d above server limit %d", p.Constraint.K, maxK)
	}
	if p.Constraint.N > maxN {
		return p, fmt.Errorf("n=%d above server limit %d", p.Constraint.N, maxN)
	}
	switch v := strings.ToLower(q.Get("mode")); v {
	case "", "concise":
		p.Constraint.Mode = core.Concise
	case "tight":
		p.Constraint.Mode = core.Tight
	case "diverse":
		p.Constraint.Mode = core.Diverse
	default:
		return p, fmt.Errorf("unknown mode %q: want concise, tight or diverse", v)
	}
	if v := q.Get("key"); v != "" {
		if p.Key, err = score.ParseKeyMeasure(v); err != nil {
			return p, err
		}
	}
	if v := q.Get("nonkey"); v != "" {
		if p.NonKey, err = score.ParseNonKeyMeasure(v); err != nil {
			return p, err
		}
	}
	if p.Tuples, err = intParam(q, "tuples", 0); err != nil {
		return p, err
	}
	if p.Tuples < 0 || p.Tuples > maxTuples {
		return p, fmt.Errorf("tuples=%d out of range [0, %d]", p.Tuples, maxTuples)
	}
	switch v := strings.ToLower(q.Get("rep")); v {
	case "", "0", "false":
	case "1", "true":
		p.Representative = true
	default:
		return p, fmt.Errorf("invalid rep=%q: want true or false", v)
	}
	switch v := strings.ToLower(q.Get("anytime")); v {
	case "", "0", "false":
	case "1", "true":
		p.Anytime = true
	default:
		return p, fmt.Errorf("invalid anytime=%q: want true or false", v)
	}
	if err := p.Constraint.Validate(); err != nil {
		return p, err
	}
	return p, nil
}

// cacheKey is prefix followed by the validated parameters in one fixed
// spelling and order, so every equivalent request — defaults omitted or
// spelled out, measure aliases (key=random-walk vs key=walk), unknown
// parameters the parser ignores — maps to the same cache key and ETag.
// Canonicalizing from the parsed struct rather than the raw query is
// what makes the merge safe: two requests share a key only if the
// handler would have seen identical previewParams, and the body is a
// function of nothing else. d is included even for concise requests
// (where discovery ignores it) — that can only fragment the key space,
// never alias two different bodies.
func (p previewParams) cacheKey(prefix string) string {
	var buf [128]byte
	b := append(buf[:0], prefix...)
	b = append(b, "k="...)
	b = strconv.AppendInt(b, int64(p.Constraint.K), 10)
	b = append(b, "&n="...)
	b = strconv.AppendInt(b, int64(p.Constraint.N), 10)
	b = append(b, "&mode="...)
	b = append(b, modeName(p.Constraint.Mode)...)
	b = append(b, "&d="...)
	b = strconv.AppendInt(b, int64(p.Constraint.D), 10)
	b = append(b, "&key="...)
	b = append(b, keyMeasureName(p.Key)...)
	b = append(b, "&nonkey="...)
	b = append(b, nonKeyMeasureName(p.NonKey)...)
	b = append(b, "&tuples="...)
	b = strconv.AppendInt(b, int64(p.Tuples), 10)
	b = append(b, "&rep="...)
	b = strconv.AppendBool(b, p.Representative)
	b = append(b, "&anytime="...)
	b = strconv.AppendBool(b, p.Anytime)
	return string(b)
}

// intParam parses an optional integer query parameter.
func intParam(q url.Values, name string, def int) (int, error) {
	v := q.Get(name)
	if v == "" {
		return def, nil
	}
	n, err := strconv.Atoi(v)
	if err != nil {
		return 0, fmt.Errorf("invalid %s=%q: not an integer", name, v)
	}
	return n, nil
}

// modeName returns the lowercase wire name of a mode, the inverse of the
// mode parameter's parse.
func modeName(m core.Mode) string {
	switch m {
	case core.Concise:
		return "concise"
	case core.Tight:
		return "tight"
	case core.Diverse:
		return "diverse"
	}
	return strings.ToLower(m.String())
}

// keyMeasureName returns the lowercase wire name of a key measure, the
// inverse of score.ParseKeyMeasure.
func keyMeasureName(m score.KeyMeasure) string {
	if m == score.KeyRandomWalk {
		return "walk"
	}
	return "coverage"
}

func nonKeyMeasureName(m score.NonKeyMeasure) string {
	if m == score.NonKeyEntropy {
		return "entropy"
	}
	return "coverage"
}
