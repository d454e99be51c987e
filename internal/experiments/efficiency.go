package experiments

// Algorithm efficiency experiments: Figure 8 (brute force vs dynamic
// programming for concise previews) and Figure 9 (brute force vs
// Apriori-style search for tight/diverse previews), with the paper's
// parameter sweeps.
//
// The paper's largest brute-force points run for hours (its Fig. 8 shows
// ~10^7 ms at k=9 on "music"); on a laptop-scale harness those points are
// extrapolated: the per-subset rate is measured on the largest capped run
// and multiplied by the exact subset count C(K, k). Extrapolated points are
// marked in the output. The shape of the comparison — brute force growing
// combinatorially while DP/Apriori stay flat — is preserved by
// construction, because brute-force cost is subset-count-driven.

import (
	"errors"
	"fmt"
	"math"
	"time"

	"github.com/uta-db/previewtables/internal/core"
	"github.com/uta-db/previewtables/internal/graph"
	"github.com/uta-db/previewtables/internal/score"
)

// EfficiencyDomains are the three domains of Fig. 8/9's first panels, with
// the paper's labels: basketball (B), architecture (A), music (M).
var EfficiencyDomains = []string{"basketball", "architecture", "music"}

// discoverer builds a coverage/coverage discoverer for a domain.
func (r *Runner) discoverer(domain string) (*core.Discoverer, error) {
	set, err := r.Scores(domain)
	if err != nil {
		return nil, err
	}
	return core.New(set, core.Options{Key: score.KeyCoverage, NonKey: score.NonKeyCoverage}), nil
}

// binomial returns C(n, k) as float64 (precise enough for cap decisions).
func binomial(n, k int) float64 {
	if k < 0 || k > n {
		return 0
	}
	if k > n-k {
		k = n - k
	}
	res := 1.0
	for i := 1; i <= k; i++ {
		res = res * float64(n-k+i) / float64(i)
	}
	return res
}

// timeIt measures the average wall-clock milliseconds of f over repeats.
// Following the paper's reporting rule, "execution time less than 1
// millisecond is rounded to 1 millisecond".
func (r *Runner) timeIt(f func() error) (float64, error) {
	var total time.Duration
	for i := 0; i < r.cfg.Repeats; i++ {
		start := time.Now()
		if err := f(); err != nil {
			return 0, err
		}
		total += time.Since(start)
	}
	ms := total.Seconds() * 1000 / float64(r.cfg.Repeats)
	if ms < 1 {
		ms = 1
	}
	return ms, nil
}

// swallowEmpty treats an empty constrained space as success: the search
// still performed (and was timed doing) the work of proving emptiness.
func swallowEmpty(err error) error {
	if errors.Is(err, core.ErrNoPreview) {
		return nil
	}
	return err
}

// measureBF times BruteForce under c, extrapolating when the subset count
// exceeds the configured cap: it measures the per-subset rate at the
// largest feasible k and scales by C(K, c.K).
func (r *Runner) measureBF(d *core.Discoverer, c core.Constraint) (ms float64, extrapolated bool, err error) {
	usable := d.Schema().NumTypes() // upper bound; exact usable count is close
	subsets := binomial(usable, c.K)
	if subsets <= r.cfg.BFSubsetCap {
		ms, err := r.timeIt(func() error {
			_, err := d.BruteForce(c)
			return swallowEmpty(err)
		})
		return ms, false, err
	}
	// Measure the per-subset rate at the largest feasible k.
	kFit := c.K
	for kFit > 1 && binomial(usable, kFit) > r.cfg.BFSubsetCap {
		kFit--
	}
	fit := c
	fit.K = kFit
	if fit.N < fit.K {
		fit.N = fit.K
	}
	start := time.Now()
	p, runErr := d.BruteForce(fit)
	elapsed := time.Since(start)
	if runErr != nil && !errors.Is(runErr, core.ErrNoPreview) {
		return 0, false, runErr
	}
	scored := p.Stats.SubsetsScored
	if scored == 0 {
		scored = int(binomial(usable, kFit)) // empty space: enumeration still visited every subset
	}
	rate := float64(elapsed.Nanoseconds()) / float64(maxInt(scored, 1))
	return rate * subsets / 1e6, true, nil
}

// measureApriori times Apriori under c, extrapolating when the estimated
// candidate volume exceeds the cap. The estimate uses the compatibility
// density ρ of valid pairs: E|Li| ≈ C(K, i)·ρ^C(i,2) (the expected i-clique
// count of a random graph with edge density ρ), summed over levels. The
// timings include the search's one-add bound, which skips assembling a
// k-subset that cannot reach the runner-up; the counts the extrapolation
// rates are taken over are unchanged by it, since a skipped subset still
// counts as scored.
func (r *Runner) measureApriori(d *core.Discoverer, c core.Constraint) (ms float64, extrapolated bool, err error) {
	est, _ := r.estimateAprioriCandidates(d, c)
	if est <= r.cfg.AprioriCandidateCap {
		ms, err := r.timeIt(func() error {
			_, err := d.Apriori(c)
			return swallowEmpty(err)
		})
		return ms, false, err
	}
	// Rate from the largest feasible k under the same distance constraint.
	kFit := 2
	for k := c.K - 1; k >= 2; k-- {
		fit := c
		fit.K = k
		if e, _ := r.estimateAprioriCandidates(d, fit); e <= r.cfg.AprioriCandidateCap {
			kFit = k
			break
		}
	}
	fit := c
	fit.K = kFit
	if fit.N < fit.K {
		fit.N = fit.K
	}
	start := time.Now()
	p, runErr := d.Apriori(fit)
	elapsed := time.Since(start)
	if runErr != nil {
		// Even the reduced constraint is empty: fall back to a nominal
		// per-candidate rate over the density-based estimate.
		return est * 100 / 1e6, true, nil
	}
	work := p.Stats.CandidatesGenerated + p.Stats.SubsetsScored
	rate := float64(elapsed.Nanoseconds()) / float64(maxInt(work, 1))
	return rate * est / 1e6, true, nil
}

// estimateAprioriCandidates predicts the total candidates the level-wise
// search would generate under c, from the exact valid-pair density.
func (r *Runner) estimateAprioriCandidates(d *core.Discoverer, c core.Constraint) (est, density float64) {
	n := d.Schema().NumTypes()
	if n < 2 || c.K < 2 {
		return float64(n), 1
	}
	valid := 0
	m := d.Distances()
	for a := 0; a < n; a++ {
		for b := a + 1; b < n; b++ {
			dist := m.Dist(graph.TypeID(a), graph.TypeID(b))
			ok := false
			switch c.Mode {
			case core.Tight:
				ok = dist >= 0 && dist <= c.D
			case core.Diverse:
				ok = dist < 0 || dist >= c.D
			default:
				ok = true
			}
			if ok {
				valid++
			}
		}
	}
	pairs := binomial(n, 2)
	density = float64(valid) / pairs
	total := 0.0
	for i := 2; i <= c.K; i++ {
		total += binomial(n, i) * math.Pow(density, float64(i*(i-1)/2))
	}
	return total, density
}

// Figure8 reproduces the concise-preview efficiency comparison: execution
// time of brute force vs dynamic programming across (1) domains B/A/M at
// k=5, n=10; (2) k = 3..9 on music, n=20; (3) n = 8..20 on music, k=6.
func (r *Runner) Figure8() (*Figure, error) {
	fig := &Figure{
		ID:    "fig8",
		Title: "Execution time of optimal concise preview discovery (ms)",
		Notes: []string{"* = extrapolated from measured per-subset rate (see package comment)"},
	}

	// Panel 1: domains at k=5, n=10.
	p1 := Panel{Title: "domains (k=5, n=10)", XLabel: "domain index B/A/M", YLabel: "ms"}
	bf1 := Series{Name: "Brute-Force"}
	dp1 := Series{Name: "Dynamic-Programming"}
	for i, domain := range EfficiencyDomains {
		d, err := r.discoverer(domain)
		if err != nil {
			return nil, err
		}
		c := core.Constraint{K: 5, N: 10, Mode: core.Concise}
		if d.Schema().NumTypes() < 5 {
			c.K = d.Schema().NumTypes()
			c.N = 2 * c.K
		}
		ms, ex, err := r.measureBF(d, c)
		if err != nil {
			return nil, err
		}
		bf1.X = append(bf1.X, float64(i+1))
		bf1.Y = append(bf1.Y, ms)
		bf1.Extrapolated = append(bf1.Extrapolated, ex)
		ms, err = r.timeIt(func() error {
			_, err := d.DynamicProgramming(c)
			return err
		})
		if err != nil {
			return nil, err
		}
		dp1.X = append(dp1.X, float64(i+1))
		dp1.Y = append(dp1.Y, ms)
		dp1.Extrapolated = append(dp1.Extrapolated, false)
	}
	p1.Series = []Series{bf1, dp1}
	fig.Panels = append(fig.Panels, p1)

	// Panel 2: k sweep on music.
	d, err := r.discoverer("music")
	if err != nil {
		return nil, err
	}
	p2 := Panel{Title: "music, n=20", XLabel: "k", YLabel: "ms"}
	bf2 := Series{Name: "Brute-Force"}
	dp2 := Series{Name: "Dynamic-Programming"}
	for k := 3; k <= 9; k += 3 {
		c := core.Constraint{K: k, N: 20, Mode: core.Concise}
		ms, ex, err := r.measureBF(d, c)
		if err != nil {
			return nil, err
		}
		bf2.X = append(bf2.X, float64(k))
		bf2.Y = append(bf2.Y, ms)
		bf2.Extrapolated = append(bf2.Extrapolated, ex)
		ms, err = r.timeIt(func() error {
			_, err := d.DynamicProgramming(c)
			return err
		})
		if err != nil {
			return nil, err
		}
		dp2.X = append(dp2.X, float64(k))
		dp2.Y = append(dp2.Y, ms)
		dp2.Extrapolated = append(dp2.Extrapolated, false)
	}
	p2.Series = []Series{bf2, dp2}
	fig.Panels = append(fig.Panels, p2)

	// Panel 3: n sweep on music.
	p3 := Panel{Title: "music, k=6", XLabel: "n", YLabel: "ms"}
	bf3 := Series{Name: "Brute-Force"}
	dp3 := Series{Name: "Dynamic-Programming"}
	for n := 8; n <= 20; n += 4 {
		c := core.Constraint{K: 6, N: n, Mode: core.Concise}
		ms, ex, err := r.measureBF(d, c)
		if err != nil {
			return nil, err
		}
		bf3.X = append(bf3.X, float64(n))
		bf3.Y = append(bf3.Y, ms)
		bf3.Extrapolated = append(bf3.Extrapolated, ex)
		ms, err = r.timeIt(func() error {
			_, err := d.DynamicProgramming(c)
			return err
		})
		if err != nil {
			return nil, err
		}
		dp3.X = append(dp3.X, float64(n))
		dp3.Y = append(dp3.Y, ms)
		dp3.Extrapolated = append(dp3.Extrapolated, false)
	}
	p3.Series = []Series{bf3, dp3}
	fig.Panels = append(fig.Panels, p3)

	return fig, nil
}

// Figure9 reproduces the tight/diverse efficiency comparison: brute force
// vs Apriori across domains, k, n and d sweeps, for both constraint modes
// (tight d=2, diverse d=4 when not swept).
func (r *Runner) Figure9() (*Figure, error) {
	fig := &Figure{
		ID:    "fig9",
		Title: "Execution time of optimal tight (upper) / diverse (lower) preview discovery (ms)",
		Notes: []string{"* = extrapolated (brute force beyond subset cap; Apriori beyond candidate cap)"},
	}
	for _, mode := range []core.Mode{core.Tight, core.Diverse} {
		defaultD := 2
		if mode == core.Diverse {
			defaultD = 4
		}

		// Panel: domains at k=5, n=10.
		p1 := Panel{Title: fmt.Sprintf("%s: domains (k=5, n=10, d=%d)", mode, defaultD), XLabel: "domain index B/A/M", YLabel: "ms"}
		bf := Series{Name: "Brute-Force"}
		ap := Series{Name: "Apriori-style"}
		for i, domain := range EfficiencyDomains {
			d, err := r.discoverer(domain)
			if err != nil {
				return nil, err
			}
			c := core.Constraint{K: 5, N: 10, Mode: mode, D: defaultD}
			if d.Schema().NumTypes() < 5 {
				c.K = d.Schema().NumTypes()
				c.N = 2 * c.K
			}
			if err := r.appendTimingPoint(&bf, &ap, d, c, float64(i+1)); err != nil {
				return nil, err
			}
		}
		p1.Series = []Series{bf, ap}
		fig.Panels = append(fig.Panels, p1)

		d, err := r.discoverer("music")
		if err != nil {
			return nil, err
		}

		// Panel: k sweep.
		p2 := Panel{Title: fmt.Sprintf("%s: music, n=20, d=%d", mode, defaultD), XLabel: "k", YLabel: "ms"}
		bf2 := Series{Name: "Brute-Force"}
		ap2 := Series{Name: "Apriori-style"}
		for k := 3; k <= 9; k += 3 {
			c := core.Constraint{K: k, N: 20, Mode: mode, D: defaultD}
			if err := r.appendTimingPoint(&bf2, &ap2, d, c, float64(k)); err != nil {
				return nil, err
			}
		}
		p2.Series = []Series{bf2, ap2}
		fig.Panels = append(fig.Panels, p2)

		// Panel: n sweep.
		p3 := Panel{Title: fmt.Sprintf("%s: music, k=6, d=%d", mode, defaultD), XLabel: "n", YLabel: "ms"}
		bf3 := Series{Name: "Brute-Force"}
		ap3 := Series{Name: "Apriori-style"}
		for n := 8; n <= 20; n += 4 {
			c := core.Constraint{K: 6, N: n, Mode: mode, D: defaultD}
			if err := r.appendTimingPoint(&bf3, &ap3, d, c, float64(n)); err != nil {
				return nil, err
			}
		}
		p3.Series = []Series{bf3, ap3}
		fig.Panels = append(fig.Panels, p3)

		// Panel: d sweep.
		p4 := Panel{Title: fmt.Sprintf("%s: music, k=6, n=16", mode), XLabel: "d", YLabel: "ms"}
		bf4 := Series{Name: "Brute-Force"}
		ap4 := Series{Name: "Apriori-style"}
		for dd := 2; dd <= 6; dd += 2 {
			c := core.Constraint{K: 6, N: 16, Mode: mode, D: dd}
			if err := r.appendTimingPoint(&bf4, &ap4, d, c, float64(dd)); err != nil {
				return nil, err
			}
		}
		p4.Series = []Series{bf4, ap4}
		fig.Panels = append(fig.Panels, p4)
	}
	return fig, nil
}

// appendTimingPoint measures one (constraint, x) point for both brute force
// and Apriori, appending to the two series. Infeasible constraints (empty
// preview space) record zero time — the search still had to do the work of
// proving emptiness, which for Apriori is fast and for brute force is the
// full enumeration; both are measured as they behave.
func (r *Runner) appendTimingPoint(bf, ap *Series, d *core.Discoverer, c core.Constraint, x float64) error {
	ms, ex, err := r.measureBF(d, c)
	if err != nil {
		return err
	}
	bf.X = append(bf.X, x)
	bf.Y = append(bf.Y, ms)
	bf.Extrapolated = append(bf.Extrapolated, ex)

	ms, ex, err = r.measureApriori(d, c)
	if err != nil {
		return err
	}
	ap.X = append(ap.X, x)
	ap.Y = append(ap.Y, ms)
	ap.Extrapolated = append(ap.Extrapolated, ex)
	return nil
}
