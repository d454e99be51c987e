package main

import (
	"bufio"
	"fmt"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// Span layers, outermost first. A span's parent is the nearest span of
// an outer layer in the same request that contains it.
const (
	layerClient = iota // the benchmark's root span around one request
	layerRouter        // fleet.Router.ServeHTTP
	layerServer        // service.Server.ServeHTTP (on a shard: inside its listener)
	layerWAL           // the durability hook: storage.WAL.Append with fsync
	numLayers
)

var layerNames = [numLayers]string{"client", "fleet.router", "service.server", "storage.wal_append"}

// span is one timed call at a layer boundary, kept compact because the
// traced browse-hot run records millions of them.
type span struct {
	layer uint8
	node  uint8 // which server answered (see tracer.nodes)
	write bool
	req   int64 // request id; spans of one request share it
	start int64 // ns since the tracer's base
	end   int64
}

// tracer keeps spans in memory for the traced run and writes them out
// when the run ends.
type tracer struct {
	base  time.Time
	mu    sync.Mutex
	spans []span
	nodes []string // node names by span.node
}

func newTracer(capacity int) *tracer {
	return &tracer{base: time.Now(), spans: make([]span, 0, capacity), nodes: []string{"in-process"}}
}

func (t *tracer) record(layer, node uint8, write bool, req int64, start, end time.Time) {
	s := span{layer: layer, node: node, write: write, req: req,
		start: int64(start.Sub(t.base)), end: int64(end.Sub(t.base))}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// addNode names a server for span attribution and returns its id.
func (t *tracer) addNode(name string) uint8 {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.nodes = append(t.nodes, name)
	return uint8(len(t.nodes) - 1)
}

// tracedHandler records one span per request that carries a benchmark
// request id; background traffic (replication polls, probes) passes
// through untimed. A write's id is published in curWrite so the
// durability hook, which receives no request, can join its span.
type tracedHandler struct {
	t        *tracer
	layer    uint8
	node     uint8
	h        http.Handler
	curWrite *atomic.Int64
}

func (th *tracedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	id, _ := strconv.ParseInt(r.Header.Get(requestIDHeader), 10, 64)
	if id == 0 {
		th.h.ServeHTTP(w, r)
		return
	}
	write := r.Method == http.MethodPost
	if write && th.curWrite != nil {
		th.curWrite.Store(id)
	}
	t0 := time.Now()
	th.h.ServeHTTP(w, r)
	th.t.record(th.layer, th.node, write, id, t0, time.Now())
}

// wrap returns h traced at layer, or h itself when t is nil.
func (t *tracer) wrap(h http.Handler, layer, node uint8, curWrite *atomic.Int64) http.Handler {
	if t == nil {
		return h
	}
	return &tracedHandler{t: t, layer: layer, node: node, h: h, curWrite: curWrite}
}

// walHook wraps a WAL append as the durability hook, timing it as a
// storage span of the write that is in flight on this node.
func (t *tracer) walHook(node uint8, curWrite *atomic.Int64, appendFn func(uint64, byte, []byte) error) func(uint64, byte, []byte) error {
	return func(epoch uint64, kind byte, payload []byte) error {
		t0 := time.Now()
		err := appendFn(epoch, kind, payload)
		t.record(layerWAL, node, true, curWrite.Load(), t0, time.Now())
		return err
	}
}

// layerStats is one layer's share of the traced requests of one class.
type layerStats struct {
	count      int
	dur, self  []float64 // µs
	selfTotal  time.Duration
	byNode     map[uint8]int
	rootsTotal time.Duration
}

// traceSummary is the analysis of one traced run.
type traceSummary struct {
	reads, writes [numLayers]*layerStats
	readCovered   []float64 // µs of each read root covered by child spans
	writeCovered  []float64
}

// analyze groups spans by request and computes every span's self time:
// its duration minus the part of it that spans of inner layers cover.
func (t *tracer) analyze() *traceSummary {
	t.mu.Lock()
	spans := t.spans
	t.mu.Unlock()
	sort.Slice(spans, func(i, j int) bool {
		if spans[i].req != spans[j].req {
			return spans[i].req < spans[j].req
		}
		if spans[i].layer != spans[j].layer {
			return spans[i].layer < spans[j].layer
		}
		return spans[i].start < spans[j].start
	})
	sum := &traceSummary{}
	for l := 0; l < numLayers; l++ {
		sum.reads[l] = &layerStats{byNode: map[uint8]int{}}
		sum.writes[l] = &layerStats{byNode: map[uint8]int{}}
	}
	for i := 0; i < len(spans); {
		j := i
		for j < len(spans) && spans[j].req == spans[i].req {
			j++
		}
		group := spans[i:j]
		i = j
		if group[0].req == 0 || group[0].layer != layerClient {
			continue // not joined to a client request
		}
		root := group[0]
		stats := sum.reads
		if root.write {
			stats = sum.writes
		}
		for k := range group {
			s := group[k]
			d := time.Duration(s.end - s.start)
			covered := coveredBy(s, group)
			self := d - covered
			ls := stats[s.layer]
			ls.count++
			ls.dur = append(ls.dur, float64(d)/1e3)
			ls.self = append(ls.self, float64(self)/1e3)
			ls.selfTotal += self
			ls.byNode[s.node]++
			if k == 0 {
				if root.write {
					sum.writeCovered = append(sum.writeCovered, float64(covered)/1e3)
				} else {
					sum.readCovered = append(sum.readCovered, float64(covered)/1e3)
				}
			}
		}
		stats[layerClient].rootsTotal += time.Duration(root.end - root.start)
	}
	return sum
}

// coveredBy is how much of s the spans of the next inner layer present
// in the group cover (their union, clipped to s).
func coveredBy(s span, group []span) time.Duration {
	var ivs [][2]int64
	for inner := s.layer + 1; inner < numLayers && len(ivs) == 0; inner++ {
		for _, c := range group {
			if c.layer != inner || c.end < s.start || c.start > s.end {
				continue
			}
			ivs = append(ivs, [2]int64{max(c.start, s.start), min(c.end, s.end)})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var total, curA, curB int64
	for k, v := range ivs {
		switch {
		case k == 0:
			curA, curB = v[0], v[1]
		case v[0] > curB:
			total += curB - curA
			curA, curB = v[0], v[1]
		case v[1] > curB:
			curB = v[1]
		}
	}
	if len(ivs) > 0 {
		total += curB - curA
	}
	return time.Duration(total)
}

// maxWrittenSpans caps the span file: the browse-hot trace holds
// millions of spans, and the first few hundred thousand already show
// every layer's shape.
const maxWrittenSpans = 200_000

// writeSpans writes the spans, up to maxWrittenSpans in request order,
// one tab-separated line each: request id, layer, node, read/write, and
// start and end in µs from the tracer's base.
func (t *tracer) writeSpans(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "req\tlayer\tnode\tkind\tstart_us\tend_us")
	for i, s := range t.spans {
		if i == maxWrittenSpans {
			break
		}
		kind := "read"
		if s.write {
			kind = "write"
		}
		fmt.Fprintf(w, "%d\t%s\t%s\t%s\t%.3f\t%.3f\n", s.req, layerNames[s.layer], t.nodes[s.node], kind,
			float64(s.start)/1e3, float64(s.end)/1e3)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// spanFile is where the traced run writes its spans: inside the
// checkout's build directory, next to the run's scratch space.
func spanFile(cfg config) string {
	return filepath.Join(filepath.Dir(cfg.workDir), fmt.Sprintf("spans-%s-seed%d.tsv", cfg.workload, cfg.seed))
}

// reportTrace prints per-layer self times, the share of the end-to-end
// read and write medians the spans account for, and the tracing
// overhead (traced minus untraced medians, in ms; NaN where the workload
// has no such class); it adds the span-derived per-layer metrics.
func reportTrace(res *result, sum *traceSummary, tr *tracer, untracedRead, tracedRead, untracedWrite, tracedWrite float64) {
	for _, class := range []struct {
		name    string
		stats   [numLayers]*layerStats
		covered []float64
	}{{"read", sum.reads, sum.readCovered}, {"write", sum.writes, sum.writeCovered}} {
		root := class.stats[layerClient]
		if root.count == 0 {
			continue
		}
		for l := 0; l < numLayers; l++ {
			ls := class.stats[l]
			if ls.count == 0 {
				continue
			}
			res.note("trace %s %-20s n=%-8d dur_p50=%10.2fµs self_p50=%10.2fµs self_share=%6.2f%%",
				class.name, layerNames[l], ls.count, median(ls.dur), median(ls.self),
				100*float64(ls.selfTotal)/float64(root.rootsTotal))
		}
		rootMed, covMed := median(root.dur), median(class.covered)
		res.note("trace %s: spans inside the client span cover %.2fµs of the %.2fµs median (%.1f%%)",
			class.name, covMed, rootMed, 100*covMed/rootMed)
	}
	overhead := func(class string, untraced, traced float64) {
		if math.IsNaN(untraced) || math.IsNaN(traced) {
			return
		}
		res.note("trace %s overhead: traced median %.4fms - untraced median %.4fms = %+.4fms",
			class, traced, untraced, traced-untraced)
	}
	overhead("read", untracedRead, tracedRead)
	overhead("write", untracedWrite, tracedWrite)

	if ls := sum.reads[layerServer]; ls.count > 0 {
		res.layer("service.read_us", median(ls.dur), "us", fmt.Sprintf("median Server.ServeHTTP span, n=%d reads", ls.count))
	}
	if ls := sum.writes[layerServer]; ls.count > 0 {
		res.layer("service.write_us", median(ls.self), "us", fmt.Sprintf("median Server.ServeHTTP self time excluding the WAL span, n=%d writes", ls.count))
	}
	if ls := sum.writes[layerWAL]; ls.count > 0 {
		res.layer("storage.append_us", median(ls.dur), "us", fmt.Sprintf("median WAL.Append+fsync in the durability hook, n=%d", ls.count))
	}
	if ls := sum.reads[layerRouter]; ls.count > 0 {
		res.layer("fleet.hop_us", median(ls.self), "us", fmt.Sprintf("median Router.ServeHTTP self time over the shard span, n=%d reads", ls.count))
	}
	res.note("spans: %d recorded", len(tr.spans))
}
