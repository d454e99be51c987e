package core

// Alg. 3's search against plain enumeration, from inside the package: the
// bitset join generates exactly the feasible i-subsets of every level,
// the per-prefix budget allocation scores every subset bit for bit as
// previewScore does, and the runner-up and budget outcomes follow.

import (
	"errors"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"github.com/uta-db/previewtables/internal/freebase"
	"github.com/uta-db/previewtables/internal/graph"
	"github.com/uta-db/previewtables/internal/score"
)

// feasibleCounts enumerates every subset of at most c.K usable types and
// counts, per size i, those whose every pair satisfies c's distance
// constraint: counts[i] is the size of Alg. 3's level i. With fewer than
// c.K usable types the search reports ErrNoPreview before generating a
// level, and every count is zero.
func feasibleCounts(d *Discoverer, c Constraint) []int {
	types := d.usableTypes()
	counts := make([]int, c.K+1)
	if len(types) < c.K {
		return counts
	}
	subset := make([]graph.TypeID, 0, c.K)
	var rec func(start int)
	rec = func(start int) {
		if d.pairwiseOK(c, subset) {
			counts[len(subset)]++
		}
		if len(subset) == c.K {
			return
		}
		for i := start; i < len(types); i++ {
			subset = append(subset, types[i])
			rec(i + 1)
			subset = subset[:len(subset)-1]
		}
	}
	rec(0)
	return counts
}

// candidateVolume is the candidate count Alg. 3 generates given
// feasibleCounts: the feasible i-subsets for i = 2..k.
func candidateVolume(counts []int) int {
	var v int
	for _, n := range counts[2:] {
		v += n
	}
	return v
}

// checkAprioriMatchesEnumeration runs apriori on c at 1, 2 and 7 workers
// and checks it against enumeration, where counts is feasibleCounts(d, c):
// the preview is BruteForce's, the runner-up is runnerUpByEnumeration's,
// CandidatesGenerated is the number of feasible i-subsets for i = 2..k,
// and a budget of exactly that volume changes nothing while one below it
// fails with ErrSearchBudget. It returns the search's outcome.
func checkAprioriMatchesEnumeration(t testing.TB, d *Discoverer, c Constraint, counts []int) error {
	t.Helper()
	volume := candidateVolume(counts)
	want, wantErr := d.BruteForce(c)
	wantUp := math.Inf(-1)
	if wantErr == nil {
		want.Stats.CandidatesGenerated = volume
		wantUp = runnerUpByEnumeration(d, c, want.Keys())
	}
	for _, workers := range []int{1, 2, 7} {
		p, up, err := d.apriori(c, workers)
		if err != wantErr || !reflect.DeepEqual(p, want) {
			t.Fatalf("%+v workers=%d: got (%+v, %v), enumeration says (%+v, %v)", c, workers, p, err, want, wantErr)
		}
		if err == nil && math.Float64bits(up) != math.Float64bits(wantUp) {
			t.Fatalf("%+v workers=%d: runner-up %v, enumeration says %v", c, workers, up, wantUp)
		}
		if volume == 0 {
			continue // a zero budget is no budget
		}
		exact := c
		exact.MaxCandidates = volume
		if p, _, err := d.apriori(exact, workers); err != wantErr || !reflect.DeepEqual(p, want) {
			t.Fatalf("%+v workers=%d: budget == volume %d got (%+v, %v), want (%+v, %v)", c, workers, volume, p, err, want, wantErr)
		}
		if volume == 1 {
			continue
		}
		starved := c
		starved.MaxCandidates = volume - 1
		if _, _, err := d.apriori(starved, workers); !errors.Is(err, ErrSearchBudget) {
			t.Fatalf("%+v workers=%d: budget one below volume %d got %v, want ErrSearchBudget", c, workers, volume, err)
		}
	}
	return wantErr
}

// TestAprioriMatchesEnumeration runs the search at serving scale, on the
// default-scale film, tv and books graphs (59–91 types): tight and
// diverse, k 1–3, n ∈ {k, k+1, 2k, 3k}, d 0–4, every measure pair, at 1,
// 2 and 7 workers, each against enumeration.
func TestAprioriMatchesEnumeration(t *testing.T) {
	for _, domain := range []string{"film", "tv", "books"} {
		domain := domain
		t.Run(domain, func(t *testing.T) {
			t.Parallel()
			g, err := freebase.Generate(domain, freebase.DefaultGenOptions())
			if err != nil {
				t.Fatal(err)
			}
			set := score.Compute(g, score.DefaultWalkOptions())
			var discs []*Discoverer
			for _, km := range []score.KeyMeasure{score.KeyCoverage, score.KeyRandomWalk} {
				for _, nm := range []score.NonKeyMeasure{score.NonKeyCoverage, score.NonKeyEntropy} {
					discs = append(discs, New(set, Options{Key: km, NonKey: nm}))
				}
			}
			var found, none int
			for _, mode := range []Mode{Tight, Diverse} {
				for dist := 0; dist <= 4; dist++ {
					// Feasibility is structural: one count serves every
					// measure pair and every n.
					counts := feasibleCounts(discs[0], Constraint{K: 3, N: 3, Mode: mode, D: dist})
					for k := 1; k <= 3; k++ {
						for i, n := range []int{k, k + 1, 2 * k, 3 * k} {
							if k == 1 && i == 2 {
								continue // 2k = k+1
							}
							c := Constraint{K: k, N: n, Mode: mode, D: dist}
							for _, d := range discs {
								switch err := checkAprioriMatchesEnumeration(t, d, c, counts[:k+1]); err {
								case nil:
									found++
								case ErrNoPreview:
									none++
								default:
									t.Fatalf("%+v: %v", c, err)
								}
							}
						}
					}
				}
			}
			t.Logf("%d constraints with a preview, %d with ErrNoPreview", found, none)
			if found == 0 || none == 0 {
				t.Fatal("an outcome kind went unexercised (fixture drifted)")
			}
		})
	}
}

// handBuilt is a Discoverer whose products are given directly: type t's
// candidates weigh weights[t] in rank order, and each table scores the
// running sum of its weights. Only allocate and previewScore may use it.
func handBuilt(weights ...[]float64) *Discoverer {
	d := &Discoverer{weight: weights, table: make([][]float64, len(weights))}
	for t, w := range weights {
		tab := make([]float64, len(w)+1)
		for j, x := range w {
			tab[j+1] = tab[j] + x
		}
		d.table[t] = tab
	}
	return d
}

// greedyTake is Theorem 3's greedy over all the tables at once, one pick
// at a time, the highest-weighted next candidate first and ties to the
// earliest table: the reference the prefix-then-merge allocation must
// reproduce.
func greedyTake(d *Discoverer, keys []graph.TypeID, n int) []int {
	take := make([]int, len(keys))
	for i := range take {
		take[i] = 1
	}
	for picked := len(keys); picked < n; picked++ {
		best := -1
		for i, t := range keys {
			if take[i] < len(d.weight[t]) && (best == -1 || d.weight[t][take[i]] > d.weight[keys[best]][take[best]]) {
				best = i
			}
		}
		if best == -1 {
			break
		}
		take[best]++
	}
	return take
}

// TestMergeTieGoesToPrefix: where a pick of the prefix tables and the last
// table's next candidate weigh the same, the pick goes to the prefix, as
// the one-pick-at-a-time greedy gives it to the earlier table. The
// allocation and score are then checked against that greedy on random
// products drawn from four values, so ties are everywhere, and
// non-dyadic, so a sum taken in another order can differ in its last
// bits.
func TestMergeTieGoesToPrefix(t *testing.T) {
	// Prefix (0, 1) picks 0's 3 and then 1's 2; the last table's 3 ties
	// the first pick and loses it, then beats the second.
	d := handBuilt([]float64{5, 3, 1}, []float64{4, 2}, []float64{6, 3, 3, 1})
	keys := []graph.TypeID{0, 1, 2}
	take := make([]int, len(keys))
	d.allocate(keys, 5, take)
	if want := []int{2, 1, 2}; !reflect.DeepEqual(take, want) {
		t.Fatalf("tied pick: take %v, want %v", take, want)
	}

	rng := rand.New(rand.NewSource(1))
	pool := []float64{0.1, 0.7, 1.0 / 3, 2.9}
	var scratch picks
	for iter := 0; iter < 2000; iter++ {
		weights := make([][]float64, 1+rng.Intn(5))
		for i := range weights {
			weights[i] = make([]float64, 1+rng.Intn(4))
			for j := range weights[i] {
				weights[i][j] = pool[rng.Intn(len(pool))]
			}
		}
		d := handBuilt(weights...)
		keys := make([]graph.TypeID, 1+rng.Intn(len(weights)))
		for i, t := range rng.Perm(len(weights))[:len(keys)] {
			keys[i] = graph.TypeID(t)
		}
		n := len(keys) + rng.Intn(10)
		want := greedyTake(d, keys, n)
		take := make([]int, len(keys))
		d.allocate(keys, n, take)
		if !reflect.DeepEqual(take, want) {
			t.Fatalf("weights %v keys %v n %d: take %v, greedy %v", weights, keys, n, take, want)
		}
		var sum float64
		for i, t := range keys {
			sum += d.table[t][want[i]]
		}
		if got := d.previewScore(keys, n, &scratch); math.Float64bits(got) != math.Float64bits(sum) {
			t.Fatalf("weights %v keys %v n %d: score %v, greedy %v", weights, keys, n, got, sum)
		}
	}
}

// FuzzAprioriMatchesBruteForce decodes its input into a schema of 2–12
// types, scored with score.ComputeSchemaOnly, and a tight or diverse
// constraint with a budget, and checks the search against enumeration on
// every measure pair, as TestAprioriMatchesEnumeration does. The input's
// own budget must fail exactly when the candidate volume exceeds it.
//
// Layout: byte 0 picks the type count, byte 1 the mode (bit 0) and d,
// bytes 2–3 k and n, byte 4 the budget (0: none), and each later triple
// one relationship type (from, to, edge count).
func FuzzAprioriMatchesBruteForce(f *testing.F) {
	f.Add([]byte{2, 2, 0, 1, 0, 0, 1, 1, 1, 2, 1})
	f.Add([]byte{4, 3, 1, 2, 3, 0, 1, 1, 1, 2, 2, 2, 3, 1})
	f.Add([]byte{6, 0, 2, 3, 0, 0, 1, 3, 0, 2, 1, 1, 3, 2, 4, 5, 1, 5, 0, 2})
	f.Add([]byte{10, 5, 3, 4, 9, 0, 1, 1, 1, 2, 1, 2, 3, 1, 3, 4, 2, 5, 6, 1, 6, 7, 1, 8, 9, 3, 9, 0, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 5 {
			return
		}
		nTypes := 2 + int(data[0])%11
		mode := Tight
		if data[1]&1 == 1 {
			mode = Diverse
		}
		k := 1 + int(data[2])%min(nTypes, 4)
		c := Constraint{K: k, N: k + int(data[3])%(2*k+1), Mode: mode, D: int(data[1]>>1) % 5}
		budget := int(data[4])
		names := make([]string, nTypes)
		for i := range names {
			names[i] = string(rune('a' + i))
		}
		var rels []graph.RelType
		for b := data[5:]; len(b) >= 3 && len(rels) < 32; b = b[3:] {
			rels = append(rels, graph.RelType{
				Name: "r", From: graph.TypeID(int(b[0]) % nTypes), To: graph.TypeID(int(b[1]) % nTypes),
				EdgeCount: 1 + int(b[2])%4,
			})
		}
		s, err := graph.NewSchema(names, rels)
		if err != nil {
			t.Fatal(err)
		}
		set := score.ComputeSchemaOnly(s, score.DefaultWalkOptions())
		for _, km := range []score.KeyMeasure{score.KeyCoverage, score.KeyRandomWalk} {
			for _, nm := range []score.NonKeyMeasure{score.NonKeyCoverage, score.NonKeyEntropy} {
				d := New(set, Options{Key: km, NonKey: nm})
				counts := feasibleCounts(d, c)
				checkAprioriMatchesEnumeration(t, d, c, counts)

				volume := candidateVolume(counts)
				budgeted := c
				budgeted.MaxCandidates = budget
				want, wantErr := d.Apriori(c)
				if budget > 0 && volume > budget {
					want, wantErr = Preview{}, ErrSearchBudget
				}
				for _, workers := range []int{1, 2, 7} {
					if p, _, err := d.apriori(budgeted, workers); err != wantErr || !reflect.DeepEqual(p, want) {
						t.Fatalf("%+v workers=%d: got (%+v, %v), want (%+v, %v) at volume %d", budgeted, workers, p, err, want, wantErr, volume)
					}
				}
			}
		}
	})
}
