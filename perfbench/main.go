// Command perfbench is the repository's benchmark: it runs one named
// workload against the preview server in a single process, checks every
// answer, and prints each metric by name with its unit and sample count.
// The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// holding the end-to-end metrics (with -trace 0) or the per-layer
// metrics (with -trace 1). Run it from the repository root through
// perfbench/run.sh, which builds it:
//
//	bash perfbench/run.sh --workload browse-hot --seed 1 --seconds 10 --trace 0
//
// Load is closed-loop: at most two client goroutines, each sending its
// next request only when the previous one has completed, over request
// lists built from the seed before timing starts. A run replays a fixed
// count of requests, scaled by --seconds, so the mix, the write count,
// the epochs and the cache fills repeat exactly and only timing varies.
// WORKLOADS.md describes each workload and the metrics.
package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// config is one invocation's settings.
type config struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	workDir  string // scratch space inside the checkout, removed at exit
}

// metric is one printed measurement.
type metric struct {
	name   string
	value  float64
	unit   string
	detail string // sample counts or base
}

// result is everything a workload run reports.
type result struct {
	endToEnd  []metric
	perLayer  []metric
	notes     []string
	attempted int
	failed    int
	failures  []string

	// readTail holds the largest read latencies (ms, ascending) of each
	// repetition and readN their count, so read_p99_ms pools every
	// repetition's reads rather than taking a median of small tails.
	readTail []float64
	readN    int
}

func (r *result) e2e(name string, value float64, unit, detail string) {
	r.endToEnd = append(r.endToEnd, metric{name, value, unit, detail})
}

func (r *result) layer(name string, value float64, unit, detail string) {
	r.perLayer = append(r.perLayer, metric{name, value, unit, detail})
}

func (r *result) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// check counts one correctness check, recording a failure when ok is false.
func (r *result) check(ok bool, format string, args ...any) {
	r.attempted++
	if !ok {
		r.failed++
		if len(r.failures) < 50 {
			r.failures = append(r.failures, fmt.Sprintf(format, args...))
		}
	}
}

// gated names the metrics BENCHMARK.json lists: every workload prints
// them, so a later change is compared on each. The JSON line carries
// exactly these; the report above it prints every metric.
var (
	gatedEndToEnd = []string{"setup_s", "read_p50_ms", "read_p99_ms", "goodput_rps", "cpu_us_per_req", "heap_mb"}
	gatedPerLayer = []string{
		"service.read_us", "service.cache_hit_ratio", "core.discover_us", "score.compute_ms",
		"storage.load_ms", "render.preview_us", "render.markdown_us",
		"runtime.alloc_kb_per_req", "runtime.gc_cycles", "runtime.gc_pause_ms", "bench.harness_us",
	}
)

type workload struct {
	name string
	run  func(cfg config, res *result) error
}

var workloads = []workload{
	{"browse-hot", runBrowseHot},
	{"explore-long-tail", runExploreLongTail},
	{"ingest-and-read", runIngestAndRead},
	{"fleet-routed", runFleetRouted},
}

func main() {
	os.Exit(realMain())
}

func realMain() int {
	var cfg config
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload to run: browse-hot, explore-long-tail, ingest-and-read or fleet-routed")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed for the generated graphs, request lists and write batches")
	flag.IntVar(&cfg.seconds, "seconds", 10, "target length of the timed window; request counts scale with it")
	flag.IntVar(&trace, "trace", 0, "1 = traced run printing the per-layer metrics")
	flag.Parse()
	cfg.trace = trace == 1
	var wl *workload
	for i := range workloads {
		if workloads[i].name == cfg.workload {
			wl = &workloads[i]
		}
	}
	if wl == nil || cfg.seconds < 1 || (trace != 0 && trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (one of %s), --seconds >= 1 and --trace 0|1\n", workloadNames())
		return 2
	}
	if _, err := os.Stat("go.mod"); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: run from the repository root")
		return 2
	}
	base := filepath.Join(".bench_build", "perfbench")
	if err := os.MkdirAll(base, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	dir, err := os.MkdirTemp(base, cfg.workload+"-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	cfg.workDir = dir
	defer os.RemoveAll(dir)

	out := bufio.NewWriter(os.Stdout)
	defer out.Flush()
	printHeader(out, cfg)
	res := &result{}
	if err := wl.run(cfg, res); err != nil {
		out.Flush()
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	return printResult(out, cfg, res)
}

func workloadNames() string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return strings.Join(names, ", ")
}

// printHeader prints the run header every output carries.
func printHeader(w io.Writer, cfg config) {
	fmt.Fprintf(w, "perfbench workload=%s seed=%d seconds=%d trace=%t\n", cfg.workload, cfg.seed, cfg.seconds, cfg.trace)
	fmt.Fprintf(w, "header go=%s cpu=%q nproc=%d gomaxprocs=%d registry_parallelism=%d commit=%s seed=%d held_out_seed=%d\n",
		runtime.Version(), cpuModel(), runtime.NumCPU(), runtime.GOMAXPROCS(0), parallelism(), commit(), cfg.seed, heldOutSeed)
}

// heldOutSeed is kept out of tuning: a later change claiming a gain
// shows it on this seed as well as on the seeds it was developed with.
const heldOutSeed = 1009

// parallelism is the Registry.Parallelism (and score walk parallelism)
// every workload sets. The two closed-loop clients already keep both
// CPUs busy, so parallel searches only add contention: with one worker
// per CPU, explore-long-tail's cpu_us_per_req and read_p50_ms spreads
// over five seeds were 0.12 and 0.14, against 0.05 and 0.07 sequential.
func parallelism() int { return 1 }

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commit identifies the code under test: the git HEAD when the checkout
// is a repository, otherwise a digest of every Go source and module
// file, so two checkouts of one commit report the same identity.
func commit() string {
	if head, err := os.ReadFile(filepath.Join(".git", "HEAD")); err == nil {
		ref := strings.TrimSpace(string(head))
		if r, ok := strings.CutPrefix(ref, "ref: "); ok {
			if id, err := os.ReadFile(filepath.Join(".git", r)); err == nil {
				return strings.TrimSpace(string(id))
			}
		} else {
			return ref
		}
	}
	var files []string
	_ = filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && p != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || d.Name() == "go.mod") {
			files = append(files, p)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s\x00%d\x00", f, len(data))
		h.Write(data)
	}
	return "tree-" + hex.EncodeToString(h.Sum(nil))[:16]
}

// printResult prints every metric and the failures, then the JSON line.
// It returns the exit code: non-zero when any correctness check failed.
func printResult(w io.Writer, cfg config, res *result) int {
	for _, n := range res.notes {
		fmt.Fprintln(w, n)
	}
	printMetrics := func(title string, ms []metric) {
		fmt.Fprintln(w, title)
		for _, m := range ms {
			fmt.Fprintf(w, "  %-28s %14.6g %-8s %s\n", m.name, m.value, m.unit, m.detail)
		}
	}
	printMetrics("end-to-end:", res.endToEnd)
	if len(res.perLayer) > 0 {
		printMetrics("per-layer:", res.perLayer)
	}
	failRatio := ratio{num: uint64(res.failed), den: uint64(res.attempted)}
	fmt.Fprintf(w, "  %-28s %14.6g %-8s %s\n", "fail_ratio", failRatio.value(), "ratio", failRatio)
	for _, f := range res.failures {
		fmt.Fprintln(w, "FAIL", f)
	}

	want, from := gatedEndToEnd, res.endToEnd
	if cfg.trace {
		want, from = gatedPerLayer, res.perLayer
	}
	type jsonMetric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]jsonMetric{}
	for _, name := range want {
		for _, m := range from {
			if m.name == name && !math.IsNaN(m.value) && !math.IsInf(m.value, 0) {
				metrics[name] = jsonMetric{m.value, m.unit}
			}
		}
		if _, ok := metrics[name]; !ok {
			res.failed++
			res.attempted++
			fmt.Fprintln(w, "FAIL metric", name, "was not measured")
		}
	}
	line, err := json.Marshal(struct {
		Correct   bool                  `json:"correct"`
		Attempted int                   `json:"attempted"`
		Failed    int                   `json:"failed"`
		Metrics   map[string]jsonMetric `json:"metrics"`
	}{res.failed == 0, res.attempted, res.failed, metrics})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(w, string(line))
	if res.failed > 0 {
		return 1
	}
	return 0
}
