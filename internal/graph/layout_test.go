package graph_test

import (
	"testing"

	"github.com/uta-db/previewtables/internal/graph/graphtest"
)

// TestNeighborsMatchScan checks the adjacency index against a scan of the
// edges in id order: for every (entity, relationship type, direction) of
// Fig. 1, the default-scale domains and seeded random multigraphs with
// parallel duplicate edges and self loops, Neighbors returns the distinct
// neighbors in first-edge order, capped at their length.
func TestNeighborsMatchScan(t *testing.T) {
	gs, err := graphtest.Corpus()
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range gs {
		if err := graphtest.CheckNeighbors(n.Graph); err != nil {
			t.Errorf("%s: %v", n.Name, err)
		}
	}
}
