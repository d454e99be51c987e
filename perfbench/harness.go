package main

import (
	"bytes"
	"fmt"
	"hash/crc32"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"time"
)

// requestIDHeader carries the benchmark's request id through every hop,
// so the traced run can join a shard's span to the client request the
// router forwarded (the router copies request headers verbatim).
const requestIDHeader = "X-Perfbench-Request"

// sink is the in-process ResponseWriter: it keeps the status and
// headers, counts body bytes and, when asked, reads the "epoch" field
// out of the first body chunk. It copies no body bytes unless keep is
// set, so the hot loop measures the handler rather than the harness.
type sink struct {
	h         http.Header
	status    int
	n         int
	wantEpoch bool
	epoch     int64 // -1 when the body carried no epoch
	keep      bool
	body      bytes.Buffer
	hash      bool // fold the body into sum (CRC-32C)
	sum       uint32
}

func newSink() *sink { return &sink{h: make(http.Header)} }

func (s *sink) reset() {
	clear(s.h)
	s.status, s.n, s.epoch, s.sum = 0, 0, -1, 0
	s.body.Reset()
}

func (s *sink) Header() http.Header { return s.h }

func (s *sink) WriteHeader(code int) {
	if s.status == 0 {
		s.status = code
	}
}

var (
	epochField = []byte(`"epoch":`)
	castagnoli = crc32.MakeTable(crc32.Castagnoli)
)

func (s *sink) Write(p []byte) (int, error) {
	if s.status == 0 {
		s.status = http.StatusOK
	}
	if s.wantEpoch && s.n == 0 {
		if i := bytes.Index(p, epochField); i >= 0 {
			j := i + len(epochField)
			k := j
			for k < len(p) && p[k] >= '0' && p[k] <= '9' {
				k++
			}
			if e, err := strconv.ParseInt(string(p[j:k]), 10, 64); err == nil {
				s.epoch = e
			}
		}
	}
	s.n += len(p)
	if s.hash {
		s.sum = crc32.Update(s.sum, castagnoli, p)
	}
	if s.keep {
		s.body.Write(p)
	}
	return len(p), nil
}

// readSpec is one distinct read URL, kept structured so the traced
// run can replay it through core and render directly.
type readSpec struct {
	graph  string
	route  string // "graphs", "stats", "preview" or "render"
	k, n   int
	mode   string // concise, tight or diverse
	d      int
	key    string // coverage or walk
	nonkey string // coverage or entropy
	tuples int
	format string // render only: text or markdown
}

func (s readSpec) path() string {
	switch s.route {
	case "graphs":
		return "/v1/graphs"
	case "stats":
		return "/v1/graphs/" + s.graph + "/stats"
	}
	p := fmt.Sprintf("/v1/graphs/%s/%s?k=%d&n=%d&mode=%s", s.graph, s.route, s.k, s.n, s.mode)
	if s.mode != "concise" {
		p += fmt.Sprintf("&d=%d", s.d)
	}
	p += fmt.Sprintf("&key=%s&nonkey=%s&tuples=%d", s.key, s.nonkey, s.tuples)
	if s.route == "render" {
		p += "&format=" + s.format
	}
	return p
}

// opWrite marks a write in a client's op list; any other value is an
// index into the workload's read targets.
const opWrite = -1

// client is one closed-loop request generator: it sends its next
// request only when the previous one has completed.
type client struct {
	id          int
	h           http.Handler
	reqs        []*http.Request // one per target, private to this client
	ops         []int32
	conditional bool // replay the last ETag seen as If-None-Match
	staticETags bool // a target's ETag may never change (static graphs)
	hashBodies  bool // check every 200 body against the first one seen (static graphs)
	wantEpoch   bool // check that read epochs never decrease
	sink        *sink
	tracer      *tracer // nil = untraced
	lastID      int64   // the last request id this client used

	// onWrite performs the i-th write of this client's list; nil when
	// the list has none.
	onWrite func(i int)
	// every/onEvery run a side task (a probe sweep) after every
	// every-th op, between requests and outside any request's timing.
	every   int
	onEvery func()

	lastETag  []string
	seenETag  []string
	seenSum   []uint32 // CRC-32C of the first body seen, with hashBodies
	lastEpoch int64

	readLat      []time.Duration
	readFailed   int
	notModified  int
	conditionals int
	reads        int
	writes       int
	failures     []string
}

func newClient(id int, h http.Handler, targets []readSpec, ops []int32) *client {
	c := &client{
		id:        id,
		h:         h,
		ops:       ops,
		sink:      newSink(),
		lastETag:  make([]string, len(targets)),
		seenETag:  make([]string, len(targets)),
		seenSum:   make([]uint32, len(targets)),
		lastEpoch: -1,
	}
	c.reqs = make([]*http.Request, len(targets))
	for i, t := range targets {
		c.reqs[i] = httptest.NewRequest(http.MethodGet, t.path(), nil)
	}
	n := 0
	for _, op := range ops {
		if op != opWrite {
			n++
		}
	}
	c.readLat = make([]time.Duration, 0, n)
	return c
}

// trace makes the client record root spans in tr (nil: untraced). Each
// client numbers its requests in its own range, so ids stay unique
// across clients.
func (c *client) trace(tr *tracer) {
	c.tracer, c.lastID = tr, int64(c.id)<<40
}

// countOps is the number of ops over all lists.
func countOps(lists [][]int32) int {
	n := 0
	for _, l := range lists {
		n += len(l)
	}
	return n
}

// runAll runs every client's list concurrently and waits for all of them.
func runAll(clients []*client) {
	var wg sync.WaitGroup
	for _, c := range clients {
		wg.Add(1)
		go func(c *client) {
			defer wg.Done()
			c.runOps(c.ops)
		}(c)
	}
	wg.Wait()
}

func (c *client) fail(format string, args ...any) {
	if len(c.failures) < 20 {
		c.failures = append(c.failures, fmt.Sprintf("client %d: ", c.id)+fmt.Sprintf(format, args...))
	}
}

// runOps replays a slice of the op list (ingest-and-read runs its reader
// one segment per write).
func (c *client) runOps(ops []int32) {
	for i, op := range ops {
		if op == opWrite {
			c.onWrite(c.writes)
			c.writes++
		} else {
			c.read(int(op))
		}
		if c.every > 0 && (c.reads+c.writes)%c.every == 0 && i < len(ops)-1 {
			c.onEvery()
		}
	}
}

// serve times one in-process request, from the call to the last body
// byte, recording a root span when the run is traced.
func (c *client) serve(req *http.Request) time.Duration {
	c.sink.reset()
	c.sink.wantEpoch = c.wantEpoch
	c.sink.hash = c.hashBodies
	if c.tracer != nil {
		c.lastID++
		id := c.lastID
		req.Header.Set(requestIDHeader, strconv.FormatInt(id, 10))
		t0 := time.Now()
		c.h.ServeHTTP(c.sink, req)
		d := time.Since(t0)
		c.tracer.record(layerClient, 0, req.Method != http.MethodGet, id, t0, t0.Add(d))
		return d
	}
	t0 := time.Now()
	c.h.ServeHTTP(c.sink, req)
	return time.Since(t0)
}

// read sends one GET for target i and checks the answer.
func (c *client) read(i int) {
	req := c.reqs[i]
	sent := ""
	if c.conditional && c.lastETag[i] != "" {
		sent = c.lastETag[i]
		if req.Header.Get("If-None-Match") != sent {
			req.Header.Set("If-None-Match", sent)
		}
		c.conditionals++
	}
	d := c.serve(req)
	c.reads++
	s := c.sink
	switch {
	case s.status == http.StatusNotModified && sent != "":
		c.notModified++
	case s.status == http.StatusOK:
		etag := s.h.Get("Etag")
		if etag == "" {
			c.readFailed++
			c.fail("GET %s: no ETag", req.URL)
			return
		}
		if c.staticETags {
			if c.seenETag[i] == "" {
				c.seenETag[i] = etag
				if c.hashBodies {
					c.seenSum[i] = s.sum
				}
			} else if c.seenETag[i] != etag || c.hashBodies && c.seenSum[i] != s.sum {
				c.readFailed++
				c.fail("GET %s: ETag or body changed on a static graph (%s then %s)", req.URL, c.seenETag[i], etag)
				return
			}
		}
		if c.conditional {
			c.lastETag[i] = etag
		}
		if c.wantEpoch && s.epoch >= 0 {
			if s.epoch < c.lastEpoch {
				c.readFailed++
				c.fail("GET %s: epoch %d after %d", req.URL, s.epoch, c.lastEpoch)
				return
			}
			c.lastEpoch = s.epoch
		}
	default:
		c.readFailed++
		c.fail("GET %s: status %d", req.URL, s.status)
		return
	}
	c.readLat = append(c.readLat, d)
}

// noop is the calibration handler: it answers every request with an
// empty 200, so running a list against it times the harness alone.
type noop struct{}

func (noop) ServeHTTP(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Etag", `"noop"`)
	w.WriteHeader(http.StatusOK)
}

// harnessCost replays every client's read list against noop on one
// goroutine and returns the harness's own mean cost per request in
// microseconds: the floor under every read latency this run reports.
func harnessCost(targets []readSpec, lists [][]int32) float64 {
	var total time.Duration
	n := 0
	for i, ops := range lists {
		c := newClient(i, noop{}, targets, ops)
		c.conditional = i%2 == 1
		for _, op := range ops {
			if op != opWrite {
				c.read(int(op))
			}
		}
		for _, d := range c.readLat {
			total += d
		}
		n += len(c.readLat)
	}
	return float64(total) / 1e3 / float64(max(n, 1))
}
