package core

// Dynamic-programming optimal concise preview discovery (Alg. 2).
//
// With the entity types in an arbitrary fixed order τ1..τK, let
// opt(i, j, x) be the best score of a preview with exactly i tables and at
// most j non-key attributes drawn from the first x types. Then
//
//	opt(i, j, x) = max( opt(i, j, x−1),
//	                    max_{m=1..min(|Γτx|, j−(i−1))}
//	                        opt(i−1, j−m, x−1) + S(τx)·Σ top-m scores )
//
// — either τx contributes nothing, or it keys a table taking its top-m
// candidates (Theorem 3), reserving i−1 attributes for the other tables.
// The answer is opt(k, n, K), reconstructed via a choice table. The optimal
// substructure breaks under a pairwise distance constraint (membership of
// τx would depend on which types were chosen earlier, not just how many),
// which is why the paper pairs this algorithm with concise previews only.

import "github.com/uta-db/previewtables/internal/graph"

const negInf = -1e308 // effectively -∞ for score sums

// DynamicProgramming solves optimal concise preview discovery in
// O(K·k·n·min(n, maxΓ)) after the O(K·N log N) candidate sort done at
// Discoverer construction. It returns an error for Tight/Diverse modes.
func (d *Discoverer) DynamicProgramming(c Constraint) (Preview, error) {
	if err := c.Validate(); err != nil {
		return Preview{}, err
	}
	if c.Mode != Concise {
		return Preview{}, errNeedApriori(c.Mode)
	}
	types := d.usableTypes()
	if len(types) < c.K {
		return Preview{}, ErrNoPreview
	}

	k, n, kTypes := c.K, c.N, len(types)

	// dp is indexed [i][j] at i*row+j, rolled over x. The one flat choice
	// table records at choice[(x-1)*states+i*row+j] how many candidates τx
	// took at state (i, j, x): 0 = skipped.
	row := n + 1
	states := (k + 1) * row
	layers := make([]float64, 2*states)
	cur, prev := layers[:states], layers[states:]
	choice := make([]int16, kTypes*states)

	// Base: x = 0. No types available: only i = 0 feasible.
	for s := row; s < states; s++ {
		prev[s] = negInf
	}

	for x := 1; x <= kTypes; x++ {
		t := types[x-1]
		avail := len(d.ranked[t])
		table := d.table[t]
		at := choice[(x-1)*states : x*states]
		for i := 0; i <= k; i++ {
			for j := 0; j <= n; j++ {
				best := prev[i*row+j]
				var bestM int16
				if i >= 1 && j >= i {
					mMax := j - (i - 1)
					if mMax > avail {
						mMax = avail
					}
					for m := 1; m <= mMax; m++ {
						below := prev[(i-1)*row+j-m]
						if below == negInf {
							continue
						}
						s := below + table[m]
						if s > best {
							best = s
							bestM = int16(m)
						}
					}
				}
				cur[i*row+j] = best
				at[i*row+j] = bestM
			}
		}
		cur, prev = prev, cur
	}
	// After the swap, prev holds the final layer.
	if prev[k*row+n] == negInf {
		return Preview{}, ErrNoPreview
	}

	// Reconstruct: walk choices from x = kTypes down.
	keys := make([]graph.TypeID, 0, k)
	takes := make([]int, 0, k)
	i, j := k, n
	for x := kTypes; x >= 1 && i > 0; x-- {
		m := int(choice[(x-1)*states+i*row+j])
		if m == 0 {
			continue
		}
		keys = append(keys, types[x-1])
		takes = append(takes, m)
		i--
		j -= m
	}
	if len(keys) != k {
		return Preview{}, ErrNoPreview
	}

	p := Preview{Tables: make([]Table, k)}
	for idx := range keys {
		// Reverse to present tables in type order.
		ri := len(keys) - 1 - idx
		p.Tables[idx] = d.buildTable(keys[ri], takes[ri])
		p.Score += p.Tables[idx].Score
	}
	p.Stats = SearchStats{SubsetsScored: 1}
	return p, nil
}

func errNeedApriori(m Mode) error {
	return &ModeError{Algorithm: "DynamicProgramming", Mode: m}
}

// ModeError reports an algorithm invoked on a preview space it does not
// support (the DP's optimal substructure breaks under distance constraints).
type ModeError struct {
	Algorithm string
	Mode      Mode
}

func (e *ModeError) Error() string {
	return "core: " + e.Algorithm + " does not support " + e.Mode.String() + " previews"
}
