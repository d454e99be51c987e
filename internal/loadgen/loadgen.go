// Package loadgen drives a previewtables service handler with a mixed
// read/write workload and reports latency percentiles, throughput,
// conditional-GET behavior, response-cache effectiveness and per-request
// allocation cost.
//
// The generator runs in-process: workers call the http.Handler directly
// through httptest.NewRequest and a discarding ResponseWriter, so the
// numbers measure the serving stack — routing, the response cache,
// ETag validation, rendering — without kernel sockets or client-side
// HTTP parsing in the way. That is deliberate: the PR this harness
// lands with is about the read path behind the listener, and an
// in-process driver can saturate it on a single-CPU container where a
// socket-based one would measure the loopback stack instead.
//
// Workloads are deterministic given Config.Seed: every worker derives
// its own PRNG, picks read paths uniformly, and (when configured)
// interleaves one write per WriteEvery requests. In Conditional mode a
// worker remembers the last ETag it saw per path and replays it as
// If-None-Match, so steady-state traffic within an epoch collapses to
// 304s — exactly the cadence a well-behaved HTTP client produces.
package loadgen

import (
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"github.com/uta-db/previewtables/internal/wire"
)

// CacheStatser is the slice of service.Server the generator needs to
// report cache effectiveness; any handler without it just reports
// zeroes.
type CacheStatser interface {
	CacheStats() (hits, misses uint64)
}

// Config describes one load run.
type Config struct {
	// Workers is the number of concurrent request loops.
	Workers int
	// Duration is how long the measured phase runs.
	Duration time.Duration
	// ReadPaths are the GET targets, picked uniformly at random.
	ReadPaths []string
	// WriteRoutes are the POST targets (e.g. "/v1/graphs/bench/edges")
	// of the workload's write arm, taken round-robin — one per graph when
	// driving a fleet, so writes land on every shard.
	WriteRoutes []string
	// WriteBody produces the i-th write's request body. Bodies should
	// be pairwise distinct so every write is a real mutation (and a
	// real epoch, invalidating the response cache).
	WriteBody func(i int) string
	// WriteEvery interleaves one write per this many requests on
	// worker 0 (0 disables writes even if WriteRoutes is set). Writes
	// stay on one worker so the write rate is a workload parameter,
	// not a function of worker count.
	WriteEvery int
	// Conditional replays each path's last observed ETag as
	// If-None-Match, the way a caching HTTP client would.
	Conditional bool
	// Seed drives all randomness; same seed, same request sequence.
	Seed int64
}

// Result is one run's measurements, shaped for BENCH_serving.json.
type Result struct {
	Workers      int     `json:"workers"`
	DurationMS   float64 `json:"duration_ms"`
	Requests     int     `json:"requests"`
	Reads        int     `json:"reads"`
	Writes       int     `json:"writes"`
	NotModified  int     `json:"not_modified"`
	Errors       int     `json:"errors"`
	RPS          float64 `json:"rps"`
	P50MS        float64 `json:"p50_ms"`
	P90MS        float64 `json:"p90_ms"`
	P99MS        float64 `json:"p99_ms"`
	MaxMS        float64 `json:"max_ms"`
	CacheHits    uint64  `json:"cache_hits"`
	CacheMisses  uint64  `json:"cache_misses"`
	CacheHitRate float64 `json:"cache_hit_rate"`
	AllocsPerOp  float64 `json:"allocs_per_op"`
	BytesPerOp   float64 `json:"bytes_per_op"`
}

// sink is the discarding ResponseWriter: it keeps headers (the
// conditional loop needs ETags) and counts body bytes, allocating
// nothing per write.
type sink struct {
	h      http.Header
	status int
	n      int64
}

func (s *sink) Header() http.Header { return s.h }
func (s *sink) WriteHeader(c int)   { s.status = c }
func (s *sink) Write(p []byte) (int, error) {
	if s.status == 0 {
		s.status = http.StatusOK
	}
	s.n += int64(len(p))
	return len(p), nil
}

// worker is one request loop's private state and tallies.
type worker struct {
	rng       *rand.Rand
	etags     map[string]string
	latencies []time.Duration
	reads     int
	writes    int
	notMod    int
	errs      []string
}

// Run drives h with cfg's workload and returns the measurements. The
// handler is warmed first (one GET per read path, excluded from the
// measured window) so cold scoring precomputation does not smear the
// percentiles; pass the same paths cold via a fresh handler to measure
// cold starts instead.
func Run(h http.Handler, cfg Config) (Result, error) {
	if cfg.Workers <= 0 {
		cfg.Workers = 1
	}
	if len(cfg.ReadPaths) == 0 {
		return Result{}, fmt.Errorf("loadgen: no read paths")
	}
	if cfg.WriteEvery > 0 && (len(cfg.WriteRoutes) == 0 || cfg.WriteBody == nil) {
		return Result{}, fmt.Errorf("loadgen: WriteEvery set without WriteRoutes and WriteBody")
	}
	for _, p := range cfg.ReadPaths {
		s := &sink{h: make(http.Header)}
		h.ServeHTTP(s, httptest.NewRequest(http.MethodGet, p, nil))
		if s.status != http.StatusOK {
			return Result{}, fmt.Errorf("loadgen: warmup GET %s: status %d", p, s.status)
		}
	}

	statser, _ := h.(CacheStatser)
	var hits0, misses0 uint64
	if statser != nil {
		hits0, misses0 = statser.CacheStats()
	}
	var before runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)

	workers := make([]*worker, cfg.Workers)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	start := time.Now()
	for i := range workers {
		w := &worker{
			rng:   rand.New(rand.NewSource(cfg.Seed + int64(i)*7919)),
			etags: make(map[string]string),
		}
		workers[i] = w
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			writeN := 0
			for req := 0; ; req++ {
				select {
				case <-stop:
					return
				default:
				}
				if id == 0 && cfg.WriteEvery > 0 && req%cfg.WriteEvery == cfg.WriteEvery-1 {
					w.doWrite(h, cfg, writeN)
					writeN++
					continue
				}
				w.doRead(h, cfg)
			}
		}(i)
	}
	time.Sleep(cfg.Duration)
	close(stop)
	wg.Wait()
	elapsed := time.Since(start)

	var after runtime.MemStats
	runtime.ReadMemStats(&after)

	res := Result{Workers: cfg.Workers, DurationMS: float64(elapsed.Microseconds()) / 1000}
	var all []time.Duration
	for _, w := range workers {
		res.Reads += w.reads
		res.Writes += w.writes
		res.NotModified += w.notMod
		res.Errors += len(w.errs)
		all = append(all, w.latencies...)
		if res.Errors > 0 && len(w.errs) > 0 {
			return res, fmt.Errorf("loadgen: %d request errors, first: %s", res.Errors, w.errs[0])
		}
	}
	res.Requests = res.Reads + res.Writes
	if res.Requests == 0 {
		return res, fmt.Errorf("loadgen: no requests completed in %v", cfg.Duration)
	}
	res.RPS = float64(res.Requests) / elapsed.Seconds()
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	res.P50MS = ms(percentile(all, 0.50))
	res.P90MS = ms(percentile(all, 0.90))
	res.P99MS = ms(percentile(all, 0.99))
	res.MaxMS = ms(all[len(all)-1])
	if statser != nil {
		hits, misses := statser.CacheStats()
		res.CacheHits = hits - hits0
		res.CacheMisses = misses - misses0
		if total := res.CacheHits + res.CacheMisses; total > 0 {
			res.CacheHitRate = float64(res.CacheHits) / float64(total)
		}
	}
	res.AllocsPerOp = float64(after.Mallocs-before.Mallocs) / float64(res.Requests)
	res.BytesPerOp = float64(after.TotalAlloc-before.TotalAlloc) / float64(res.Requests)
	return res, nil
}

func (w *worker) doRead(h http.Handler, cfg Config) {
	path := cfg.ReadPaths[w.rng.Intn(len(cfg.ReadPaths))]
	req := httptest.NewRequest(http.MethodGet, path, nil)
	if cfg.Conditional {
		if tag := w.etags[path]; tag != "" {
			req.Header.Set("If-None-Match", tag)
		}
	}
	s := &sink{h: make(http.Header)}
	t0 := time.Now()
	h.ServeHTTP(s, req)
	w.latencies = append(w.latencies, time.Since(t0))
	w.reads++
	switch s.status {
	case http.StatusOK:
		if cfg.Conditional {
			if tag := s.h.Get("ETag"); tag != "" {
				w.etags[path] = tag
			}
		}
	case http.StatusNotModified:
		w.notMod++
	default:
		w.errs = append(w.errs, fmt.Sprintf("GET %s: status %d", path, s.status))
	}
}

func (w *worker) doWrite(h http.Handler, cfg Config, n int) {
	route := cfg.WriteRoutes[n%len(cfg.WriteRoutes)]
	req := httptest.NewRequest(http.MethodPost, route, strings.NewReader(cfg.WriteBody(n)))
	req.Header.Set("Content-Type", "application/json")
	s := &sink{h: make(http.Header)}
	t0 := time.Now()
	h.ServeHTTP(s, req)
	w.latencies = append(w.latencies, time.Since(t0))
	w.writes++
	if s.status != http.StatusOK {
		w.errs = append(w.errs, fmt.Sprintf("POST %s: status %d", route, s.status))
	}
}

// Remote adapts a live HTTP endpoint into the http.Handler the
// generator drives: each in-process request is re-issued as a real
// request against base, and the response is copied back verbatim. The
// same workload, warmup and measurement code then exercises a running
// previewd node or the fleet router over actual sockets — which is the
// point when measuring router overhead: the wire belongs in the path.
func Remote(base string) http.Handler {
	base = strings.TrimRight(base, "/")
	client := &http.Client{}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !wire.Forward(w, r, client, base) {
			// Surfaces in the run's error tally with the request line.
			w.WriteHeader(http.StatusBadGateway)
		}
	})
}

// percentile reads the p-quantile from an ascending latency slice by
// the nearest-rank method.
func percentile(sorted []time.Duration, p float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(p * float64(len(sorted)))
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

func ms(d time.Duration) float64 {
	return float64(d.Microseconds()) / 1000
}
