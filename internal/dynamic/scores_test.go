package dynamic

import (
	"fmt"

	"github.com/uta-db/previewtables/internal/graph"
	"github.com/uta-db/previewtables/internal/score"
)

// ScoresEqual reports the first score slot in which got and want differ,
// under any of the four measures, compared with ==: a live graph's score
// set is a function of its state, so it must equal score.Compute's on the
// same state bit for bit. The package's external tests share it.
func ScoresEqual(got, want *score.Set) error {
	sg, sw := got.Schema(), want.Schema()
	if sg.NumTypes() != sw.NumTypes() || sg.NumRelTypes() != sw.NumRelTypes() {
		return fmt.Errorf("schema sizes differ: (%d,%d) vs (%d,%d)",
			sg.NumTypes(), sg.NumRelTypes(), sw.NumTypes(), sw.NumRelTypes())
	}
	for tt := 0; tt < sg.NumTypes(); tt++ {
		t := graph.TypeID(tt)
		for _, m := range []score.KeyMeasure{score.KeyCoverage, score.KeyRandomWalk} {
			if a, b := got.Key(m, t), want.Key(m, t); a != b {
				return fmt.Errorf("type %d %v: %v, want %v", tt, m, a, b)
			}
		}
		if a, b := len(sg.Incident(t)), len(sw.Incident(t)); a != b {
			return fmt.Errorf("type %d: %d incidences, want %d", tt, a, b)
		}
		for i := range sg.Incident(t) {
			for _, m := range []score.NonKeyMeasure{score.NonKeyCoverage, score.NonKeyEntropy} {
				if a, b := got.NonKey(m, t, i), want.NonKey(m, t, i); a != b {
					return fmt.Errorf("type %d incidence %d %v: %v, want %v", tt, i, m, a, b)
				}
			}
		}
	}
	return nil
}
