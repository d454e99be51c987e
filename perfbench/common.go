package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"github.com/uta-db/previewtables/internal/freebase"
	"github.com/uta-db/previewtables/internal/graph"
	"github.com/uta-db/previewtables/internal/storage"
)

// snapshot generates a domain graph and writes it as a snapshot file in
// the run's work directory, returning the path. Generating and writing
// the inputs is the benchmark's own work: set-up starts at LoadFile.
//
// The graphs do not vary with the run seed, which drives the request
// lists and write batches: with a graph generated per seed,
// explore-long-tail's read_p50_ms spread 0.34 over four seeds, against
// 0.16 over three runs of one seed. Default-scale domains use the
// generator's default seed; the 100k-entity graph is the one
// BENCH_parallel_hotpaths.json measures.
func snapshot(cfg config, domain string, targetEntities int) (string, error) {
	opts := freebase.DefaultGenOptions()
	if targetEntities > 0 {
		opts.TargetEntities, opts.Seed = targetEntities, 7
	}
	g, err := freebase.Generate(domain, opts)
	if err != nil {
		return "", fmt.Errorf("generating %s: %w", domain, err)
	}
	return saveSnapshot(cfg, domain, g)
}

func saveSnapshot(cfg config, name string, g *graph.EntityGraph) (string, error) {
	path := filepath.Join(cfg.workDir, name+".egpt")
	if err := storage.SaveFile(path, g); err != nil {
		return "", fmt.Errorf("writing snapshot %s: %w", name, err)
	}
	return path, nil
}

// zipf draws ranks 0..n-1 with P(r) ∝ 1/(r+1)^s for any s > 0
// (math/rand's Zipf needs s > 1, too steep for a long tail).
type zipf struct {
	cdf []float64
	rng *rand.Rand
}

func newZipf(rng *rand.Rand, n int, s float64) *zipf {
	cdf := make([]float64, n)
	total := 0.0
	for r := 0; r < n; r++ {
		total += 1 / math.Pow(float64(r+1), s)
		cdf[r] = total
	}
	for r := range cdf {
		cdf[r] /= total
	}
	return &zipf{cdf: cdf, rng: rng}
}

func (z *zipf) next() int {
	u := z.rng.Float64()
	r := sort.SearchFloat64s(z.cdf, u)
	if r >= len(z.cdf) {
		r = len(z.cdf) - 1
	}
	return r
}

// scaled is a request count for a run of cfg.seconds, given the count
// that fills about ten seconds on a 2-vCPU machine.
func scaled(cfg config, perTenSeconds int) int {
	n := perTenSeconds * cfg.seconds / 10
	if n < 1 {
		n = 1
	}
	return n
}

// window is what the timed window measured besides request latencies.
type window struct {
	elapsed       time.Duration
	cpuBefore     cpuTimes
	cpuAfter      cpuTimes
	memBefore     runtime.MemStats
	memAfter      runtime.MemStats
	heapAfterGCMB float64
}

// timeWindow runs load after a forced collection (so set-up garbage is
// not collected inside the window) and samples CPU and memory around it.
func timeWindow(load func()) *window {
	w := &window{}
	runtime.GC()
	runtime.ReadMemStats(&w.memBefore)
	w.cpuBefore = readCPU()
	t0 := time.Now()
	load()
	w.elapsed = time.Since(t0)
	w.cpuAfter = readCPU()
	runtime.ReadMemStats(&w.memAfter)
	return w
}

// measureHeap forces a collection and records the live heap. Call it
// after dropping the harness's request lists and latency buffers, so
// the figure is the program's state at the end of the window.
func (w *window) measureHeap() {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	w.heapAfterGCMB = float64(ms.HeapAlloc) / (1 << 20)
}

// tailShare is the share of each repetition's slowest reads kept for
// the pooled p99: with equal-sized repetitions, the pooled top 1% can
// come from one repetition's top 1% × repetitions at most.
const tailShare = 0.01 * repetitions

// reportReads adds read_p50_ms over every client's reads and keeps the
// slowest of them for the pooled read_p99_ms (see reportReadTail).
func reportReads(res *result, clients []*client) []float64 {
	var lat []time.Duration
	failed, reads := 0, 0
	for _, c := range clients {
		lat = append(lat, c.readLat...)
		failed += c.readFailed
		reads += c.reads
		res.failures = append(res.failures, c.failures...)
	}
	res.attempted += reads
	res.failed += failed
	ms := sortedMillis(lat, failed)
	reportPercentiles(res, "read", ms, []float64{50})
	keep := min(len(ms), int(math.Ceil(tailShare*float64(len(ms))))+1)
	res.readTail = append(res.readTail, ms[len(ms)-keep:]...)
	res.readN += len(ms)
	return ms
}

// reportReadTail adds read_p99_ms over every repetition's reads pooled.
func reportReadTail(res *result) {
	sort.Float64s(res.readTail)
	v, err := tailPercentile(res.readTail, res.readN, 99)
	if err != nil {
		res.note("read_p99_ms not reported: %v", err)
		return
	}
	res.e2e("read_p99_ms", v, "ms", fmt.Sprintf("n=%d reads pooled over the repetitions", res.readN))
}

// reportPercentiles adds <class>_p<p>_ms for each p the sample supports.
func reportPercentiles(res *result, class string, ms []float64, ps []float64) {
	for _, p := range ps {
		v, err := percentile(ms, p)
		name := fmt.Sprintf("%s_p%g_ms", class, p)
		if err != nil {
			res.note("%s not reported: %v", name, err)
			continue
		}
		res.e2e(name, v, "ms", fmt.Sprintf("n=%d", len(ms)))
	}
}

// withinLimit counts samples at or under limit.
func withinLimit(ms []float64, limit time.Duration) int {
	lim := float64(limit) / 1e6
	return sort.Search(len(ms), func(i int) bool { return ms[i] > lim })
}

// reportWindow adds goodput, CPU per request, heap and the runtime
// per-layer counters. good is the number of successful reads and writes
// within the workload's latency limits; requests is every request
// completed, the writers' visibility reads included.
func reportWindow(res *result, w *window, good, requests int, limits string) {
	secs := w.elapsed.Seconds()
	res.e2e("goodput_rps", float64(good)/secs, "req/s", fmt.Sprintf("%d reads and writes within %s in %.3fs", good, limits, secs))
	if cpu, err := cpuPerRequest(w.cpuBefore, w.cpuAfter, requests); err == nil {
		res.e2e("cpu_us_per_req", cpu, "us", fmt.Sprintf("n=%d requests, user+sys %v", requests,
			(w.cpuAfter.user-w.cpuBefore.user)+(w.cpuAfter.sys-w.cpuBefore.sys)))
	} else {
		res.note("cpu_us_per_req not reported: %v", err)
	}
	res.e2e("heap_mb", w.heapAfterGCMB, "MB", "HeapAlloc after a forced GC at the end of the window")
	alloc := float64(w.memAfter.TotalAlloc-w.memBefore.TotalAlloc) / 1024 / float64(max(requests, 1))
	res.layer("runtime.alloc_kb_per_req", alloc, "KB", fmt.Sprintf("n=%d requests", requests))
	res.layer("runtime.gc_cycles", float64(w.memAfter.NumGC-w.memBefore.NumGC), "count", fmt.Sprintf("in %.3fs", secs))
	res.layer("runtime.gc_pause_ms", float64(w.memAfter.PauseTotalNs-w.memBefore.PauseTotalNs)/1e6, "ms",
		fmt.Sprintf("over %d cycles", w.memAfter.NumGC-w.memBefore.NumGC))
}

// fetch serves one GET in-process and returns status, ETag and body.
func fetch(h http.Handler, path string) (int, string, []byte) {
	s := newSink()
	s.keep = true
	s.reset()
	h.ServeHTTP(s, httptest.NewRequest(http.MethodGet, path, nil))
	return s.status, s.h.Get("Etag"), append([]byte(nil), s.body.Bytes()...)
}

// compareServers checks that every target answers 200 with the same
// body and ETag from got and want, and returns a digest over want's
// bodies (in target order) and the reference ETags.
func compareServers(res *result, what string, got, want http.Handler, targets []readSpec) (string, []string) {
	h := sha256.New()
	etags := make([]string, len(targets))
	for i, t := range targets {
		p := t.path()
		gs, ge, gb := fetch(got, p)
		ws, we, wb := fetch(want, p)
		res.check(gs == http.StatusOK && ws == http.StatusOK, "%s: GET %s: status %d, reference %d", what, p, gs, ws)
		res.check(ge == we && ge != "", "%s: GET %s: ETag %s, reference %s", what, p, ge, we)
		res.check(bytes.Equal(gb, wb), "%s: GET %s: body differs from the reference (%d vs %d bytes)", what, p, len(gb), len(wb))
		fmt.Fprintf(h, "%s\x00%d\x00", p, len(wb))
		h.Write(wb)
		etags[i] = we
	}
	return hex.EncodeToString(h.Sum(nil)), etags
}

// durMedianMS is the median of ds in milliseconds.
func durMedianMS(ds []time.Duration) float64 {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = float64(d) / 1e6
	}
	return median(xs)
}

// repetitions is how many times a run sets up its system and replays
// the same lists through a fresh window. Each end-to-end metric is the
// median over the repetitions, so one disturbed set-up or window moves
// a run's figures less than one long window would.
const repetitions = 3

// mergeReps reports, for every metric the repetitions measured, the
// median over them, and sums their checks.
func mergeReps(res *result, reps []*result) {
	merge := func(get func(*result) []metric, add func(string, float64, string, string)) {
		var names []string
		seen := map[string]bool{}
		for _, r := range reps {
			for _, m := range get(r) {
				if !seen[m.name] {
					seen[m.name] = true
					names = append(names, m.name)
				}
			}
		}
		for _, name := range names {
			var vals []string
			var xs []float64
			var unit, detail string
			for _, r := range reps {
				for _, m := range get(r) {
					if m.name == name {
						xs = append(xs, m.value)
						vals = append(vals, fmt.Sprintf("%.6g", m.value))
						unit, detail = m.unit, m.detail
					}
				}
			}
			if len(xs) != len(reps) {
				res.note("%s measured in %d of %d repetitions, not reported", name, len(xs), len(reps))
				continue
			}
			add(name, median(xs), unit, fmt.Sprintf("median of %d repetitions [%s]; last: %s", len(xs), strings.Join(vals, " "), detail))
		}
	}
	merge(func(r *result) []metric { return r.endToEnd }, res.e2e)
	merge(func(r *result) []metric { return r.perLayer }, res.layer)
	for _, r := range reps {
		res.readTail = append(res.readTail, r.readTail...)
		res.readN += r.readN
		res.notes = append(res.notes, r.notes...)
		res.failures = append(res.failures, r.failures...)
		res.attempted += r.attempted
		res.failed += r.failed
	}
}
