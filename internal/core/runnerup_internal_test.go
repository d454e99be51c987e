package core

// The runner-up score that every Maintained certificate starts from,
// pinned from inside the package: apriori returns the same preview,
// runner-up and error at every worker count, and the runner-up is the
// best score of every other feasible k-subset, found here by plain
// enumeration.

import (
	"math"
	"reflect"
	"slices"
	"testing"

	"github.com/uta-db/previewtables/internal/freebase"
	"github.com/uta-db/previewtables/internal/graph"
	"github.com/uta-db/previewtables/internal/score"
)

// runnerUpByEnumeration is the best preview score over every feasible
// k-subset of usable types other than winner, or -Inf if there is none.
func runnerUpByEnumeration(d *Discoverer, c Constraint, winner []graph.TypeID) float64 {
	types := d.usableTypes()
	best := math.Inf(-1)
	subset := make([]graph.TypeID, c.K)
	var scratch picks
	var rec func(pos, start int)
	rec = func(pos, start int) {
		if pos == c.K {
			if d.pairwiseOK(c, subset) && !slices.Equal(subset, winner) {
				best = math.Max(best, d.previewScore(subset, c.N, &scratch))
			}
			return
		}
		for i := start; i < len(types); i++ {
			subset[pos] = types[i]
			rec(pos+1, i+1)
		}
	}
	rec(0, 0)
	return best
}

// TestAprioriRunnerUp runs the differential graphs' tight and diverse
// constraints, plus ones that end in ErrNoPreview or ErrSearchBudget, on
// every measure pair. A path schema a-b-c adds a constraint whose winner
// is the only feasible subset ({a, b, c} under tight d=2), where the
// runner-up must be -Inf.
func TestAprioriRunnerUp(t *testing.T) {
	type fixture struct {
		name string
		set  *score.Set
		cs   []Constraint
	}
	generated := []Constraint{
		{K: 2, N: 4, Mode: Tight, D: 2},
		{K: 3, N: 6, Mode: Tight, D: 3},
		{K: 2, N: 4, Mode: Diverse, D: 2},
		{K: 3, N: 6, Mode: Diverse, D: 3},
		{K: 4, N: 8, Mode: Diverse, D: 1},
		{K: 2, N: 4, Mode: Tight, D: 0}, // no two types at distance 0
	}
	var fixtures []fixture
	for _, domain := range []string{"basketball", "architecture"} {
		for _, seed := range []int64{7, 20160626} {
			g, err := freebase.Generate(domain, freebase.GenOptions{
				Scale: 1e-4, Seed: seed, MinEntities: 300, MinEdges: 1200,
			})
			if err != nil {
				t.Fatal(err)
			}
			fixtures = append(fixtures, fixture{
				name: domain + "/" + string(rune('0'+seed%10)),
				set:  score.Compute(g, score.DefaultWalkOptions()),
				cs:   generated,
			})
		}
	}
	path, err := graph.NewSchema([]string{"a", "b", "c"}, []graph.RelType{
		{Name: "r", From: 0, To: 1}, {Name: "r", From: 1, To: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	fixtures = append(fixtures, fixture{
		name: "path",
		set:  score.ComputeSchemaOnly(path, score.DefaultWalkOptions()),
		cs: []Constraint{
			{K: 3, N: 3, Mode: Tight, D: 2},
			{K: 2, N: 2, Mode: Tight, D: 1},
		},
	})

	var finite, alone, noPreview, overBudget int
	for _, fx := range fixtures {
		for _, km := range []score.KeyMeasure{score.KeyCoverage, score.KeyRandomWalk} {
			for _, nm := range []score.NonKeyMeasure{score.NonKeyCoverage, score.NonKeyEntropy} {
				d := New(fx.set, Options{Key: km, NonKey: nm})
				var cs []Constraint
				for _, c := range fx.cs {
					cs = append(cs, c)
					// The same constraint one candidate short of its volume.
					if p, _, err := d.apriori(c, 1); err == nil && p.Stats.CandidatesGenerated > 0 {
						c.MaxCandidates = p.Stats.CandidatesGenerated - 1
						cs = append(cs, c)
					}
				}
				for _, c := range cs {
					want, wantUp, wantErr := d.apriori(c, 1)
					for _, w := range []int{2, 3, 7} {
						p, up, err := d.apriori(c, w)
						if err != wantErr || !reflect.DeepEqual(p, want) || (err == nil && up != wantUp) {
							t.Fatalf("%s %v/%v %+v: workers=%d got (%+v, %v, %v), workers=1 got (%+v, %v, %v)",
								fx.name, km, nm, c, w, p, up, err, want, wantUp, wantErr)
						}
					}
					switch wantErr {
					case nil:
					case ErrNoPreview:
						noPreview++
						continue
					case ErrSearchBudget:
						overBudget++
						continue
					default:
						t.Fatalf("%s %v/%v %+v: %v", fx.name, km, nm, c, wantErr)
					}
					if ref := runnerUpByEnumeration(d, c, want.Keys()); wantUp != ref {
						t.Fatalf("%s %v/%v %+v: runner-up %v, enumeration says %v", fx.name, km, nm, c, wantUp, ref)
					}
					if math.IsInf(wantUp, -1) {
						alone++
					} else {
						finite++
					}
				}
			}
		}
	}
	t.Logf("runner-ups: %d finite, %d -Inf; errors: %d ErrNoPreview, %d ErrSearchBudget", finite, alone, noPreview, overBudget)
	if finite == 0 || alone == 0 || noPreview == 0 || overBudget == 0 {
		t.Fatal("an outcome kind went unexercised (fixture drifted)")
	}
}
