package service

// Race coverage for the parallel hot paths: preview reads — each fanning
// scoring and search out over a worker pool — racing live write batches.
// Run under -race by CI. The assertions are the epoch discipline (monotone
// per reader) and the absence of torn score.Set reads: after the dust
// settles, a preview served over HTTP must equal one computed directly
// from the final snapshot's score set, which could not hold had any
// request mixed state from two epochs.

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"github.com/uta-db/previewtables/internal/core"
	"github.com/uta-db/previewtables/internal/dynamic"
	"github.com/uta-db/previewtables/internal/freebase"
	"github.com/uta-db/previewtables/internal/score"
)

func TestParallelScoringUnderConcurrentWrites(t *testing.T) {
	src, err := freebase.Generate("basketball", freebase.GenOptions{
		Scale: 1e-4, Seed: 31, MinEntities: 300, MinEdges: 1200,
	})
	if err != nil {
		t.Fatal(err)
	}
	dg, err := dynamic.FromEntityGraph(src)
	if err != nil {
		t.Fatal(err)
	}
	live, err := dynamic.NewLive(dg, score.DefaultWalkOptions())
	if err != nil {
		t.Fatal(err)
	}
	reg := NewRegistry()
	reg.Parallelism = 4 // every Discoverer build and search fans out
	if err := reg.AddLive("bb", live); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(New(reg))
	defer ts.Close()

	// One entity pair the writers keep connecting under fresh relationship
	// instances; resolved by name so batches stay valid as the graph grows.
	rel := src.RelType(0)
	from := src.EntityName(src.EntitiesOfType(rel.From)[0])
	to := src.EntityName(src.EntitiesOfType(rel.To)[0])

	const writers, batches, readers = 3, 6, 4
	var writersWG, readersWG sync.WaitGroup
	errs := make(chan error, writers*batches+readers)
	done := make(chan struct{})

	for w := 0; w < writers; w++ {
		w := w
		writersWG.Add(1)
		go func() {
			defer writersWG.Done()
			for b := 0; b < batches; b++ {
				body := fmt.Sprintf(
					`{"edges":[{"from":%q,"rel":%q,"from_type":%q,"to_type":%q,"to":%q}]}`,
					from, rel.Name, src.TypeName(rel.From), src.TypeName(rel.To), to)
				resp, err := http.Post(ts.URL+"/v1/graphs/bb/edges", "application/json", strings.NewReader(body))
				if err != nil {
					errs <- err
					continue
				}
				raw, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					errs <- fmt.Errorf("writer %d batch %d: status %d body %s", w, b, resp.StatusCode, raw)
				}
			}
		}()
	}

	// Readers sweep the measure pairs and modes, so the racing searches
	// exercise both the parallel Apriori and the (concise) DP path against
	// Discoverers built on the worker pool.
	queries := []string{
		"/v1/graphs/bb/preview?k=2&n=4",
		"/v1/graphs/bb/preview?k=2&n=4&key=walk&nonkey=entropy",
		"/v1/graphs/bb/preview?k=2&n=4&mode=tight&d=3",
		"/v1/graphs/bb/preview?k=2&n=4&mode=diverse&d=1&nonkey=entropy",
	}
	for r := 0; r < readers; r++ {
		r := r
		readersWG.Add(1)
		go func() {
			defer readersWG.Done()
			var last uint64
			for i := 0; ; i++ {
				select {
				case <-done:
					return
				default:
				}
				resp, err := http.Get(ts.URL + queries[i%len(queries)])
				if err != nil {
					errs <- err
					return
				}
				raw, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					errs <- fmt.Errorf("reader %d: status %d body %s", r, resp.StatusCode, raw)
					return
				}
				var doc struct {
					Epoch   *uint64 `json:"epoch"`
					Preview struct {
						Score float64 `json:"score"`
					} `json:"preview"`
				}
				if err := json.Unmarshal(raw, &doc); err != nil || doc.Epoch == nil {
					errs <- fmt.Errorf("reader %d: bad body %s (%v)", r, raw, err)
					return
				}
				if *doc.Epoch < last {
					errs <- fmt.Errorf("reader %d: epoch regressed %d → %d", r, last, *doc.Epoch)
					return
				}
				last = *doc.Epoch
				if doc.Preview.Score < 0 {
					errs <- fmt.Errorf("reader %d: negative preview score %v", r, doc.Preview.Score)
					return
				}
			}
		}()
	}

	writersWG.Wait()
	close(done)
	readersWG.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if t.Failed() {
		t.FailNow()
	}

	// Quiesced: the served preview must equal one discovered directly from
	// the final snapshot — a torn read of a half-published score.Set could
	// not reproduce it.
	snap := live.Snapshot()
	if snap.Epoch != uint64(writers*batches) {
		t.Fatalf("expected epoch %d after %d batches, got %d", writers*batches, writers*batches, snap.Epoch)
	}
	want, err := core.New(snap.Scores, core.Options{Key: score.KeyCoverage, NonKey: score.NonKeyCoverage, Parallelism: 4}).
		Discover(core.Constraint{K: 2, N: 4, Mode: core.Concise})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(ts.URL + "/v1/graphs/bb/preview?k=2&n=4")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	var doc struct {
		Epoch   *uint64 `json:"epoch"`
		Preview struct {
			Score float64 `json:"score"`
		} `json:"preview"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Epoch == nil || *doc.Epoch != snap.Epoch {
		t.Fatalf("post-quiesce preview epoch %v, want %d", doc.Epoch, snap.Epoch)
	}
	if doc.Preview.Score != want.Score {
		t.Fatalf("served preview score %v != snapshot-derived score %v", doc.Preview.Score, want.Score)
	}
}
