package service

// Write endpoints: live graph ingestion over HTTP.
//
//	POST /v1/graphs/{name}/edges     JSON edge batch
//	POST /v1/graphs/{name}/triples   native triple-format batch (text)
//
// Both routes require the graph to be registered mutable (previewd
// -mutable); writes to a static graph fail with 405, and writes to a
// read replica (previewd -follow) with 503 naming the leader — the
// ordering and Allow discipline live in Server.requireWritable. A batch
// is atomic:
// it is fully validated before the live graph is touched, applies as one
// mutation, bumps the epoch by exactly one, and triggers exactly one
// incremental score refresh. Failed batches mutate nothing and publish no
// epoch. Limits: Server.MaxBodyBytes on the request body and
// Server.MaxBatchEdges on the batch's edge count, both answered with 413.
//
// On a durable graph (Registry.AddLive with WithDurability) each batch
// is written to the WAL before its epoch is published; a failed log
// write answers 500 with no epoch published, and the graph stops
// accepting writes (dynamic.ErrWedged, also 500) until a restart
// re-syncs memory with the log.

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"time"

	"github.com/uta-db/previewtables/internal/dynamic"
	"github.com/uta-db/previewtables/internal/graph"
	"github.com/uta-db/previewtables/internal/render"
	"github.com/uta-db/previewtables/internal/triple"
	"github.com/uta-db/previewtables/internal/wire"
)

// edgeDoc is one relationship instance in a POST /edges batch. From, Rel
// and To are required. FromType and ToType name the endpoint entity
// types: given together they declare-or-find the relationship type
// (upsert, exactly like the native triple format's edge directive);
// omitted together, Rel must resolve to exactly one already-declared
// relationship type by surface name.
type edgeDoc struct {
	From     string `json:"from"`
	Rel      string `json:"rel"`
	FromType string `json:"from_type,omitempty"`
	ToType   string `json:"to_type,omitempty"`
	To       string `json:"to"`
}

// edgesRequest is the JSON body of POST /v1/graphs/{name}/edges.
type edgesRequest struct {
	Edges []edgeDoc `json:"edges"`
}

// mutationResponse is the JSON body of a successful write: the epoch the
// batch created and the graph's statistics at that epoch.
type mutationResponse struct {
	Graph        string               `json:"graph"`
	Epoch        uint64               `json:"epoch"`
	AppliedEdges int                  `json:"applied_edges"`
	Stats        render.GraphStatsDoc `json:"stats"`
	ElapsedMS    float64              `json:"elapsed_ms"`
}

// resolveError marks a well-formed batch that names things the graph does
// not have (unknown or ambiguous relationship type): HTTP 422, in
// contrast to malformed payloads (400).
type resolveError struct{ err error }

func (e *resolveError) Error() string { return e.err.Error() }

// readBody reads a write request's body under the server's size cap,
// distinguishing the over-cap failure (413) from transport errors.
func (s *Server) readBody(w http.ResponseWriter, r *http.Request) ([]byte, bool) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, s.MaxBodyBytes))
	if err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			wire.WriteError(w, http.StatusRequestEntityTooLarge,
				fmt.Errorf("request body exceeds %d bytes", s.MaxBodyBytes))
		} else {
			wire.WriteError(w, http.StatusBadRequest, fmt.Errorf("reading body: %v", err))
		}
		return nil, false
	}
	return body, true
}

// finishMutation publishes the batch's snapshot as the graph's current
// view and answers with the new epoch.
func (s *Server) finishMutation(w http.ResponseWriter, gr *Graph, snap *dynamic.Snapshot, applied int, start time.Time) {
	gr.publish(snap)
	wire.WriteJSON(w, mutationResponse{
		Graph:        gr.Name(),
		Epoch:        snap.Epoch,
		AppliedEdges: applied,
		Stats:        render.GraphStats(gr.Name(), snap.Frozen.Stats()).WithEpoch(snap.Epoch),
		ElapsedMS:    float64(time.Since(start).Microseconds()) / 1000,
	})
}

// writeMutationError maps an apply failure onto an HTTP status: batches
// naming unknown things are the client's 422; everything else — and in
// particular a durability (WAL) failure or a wedged graph — is the
// server's 500.
func (s *Server) writeMutationError(w http.ResponseWriter, err error) {
	var re *resolveError
	if errors.As(err, &re) {
		wire.WriteError(w, http.StatusUnprocessableEntity, err)
		return
	}
	wire.WriteError(w, http.StatusInternalServerError, err)
}

// handleEdges applies a JSON edge batch to a mutable graph.
func (s *Server) handleEdges(w http.ResponseWriter, r *http.Request, gr *Graph) {
	start := time.Now()
	body, ok := s.readBody(w, r)
	if !ok {
		return
	}
	var req edgesRequest
	if err := json.Unmarshal(body, &req); err != nil {
		wire.WriteError(w, http.StatusBadRequest, fmt.Errorf("decoding edge batch: %v", err))
		return
	}
	if len(req.Edges) == 0 {
		wire.WriteError(w, http.StatusBadRequest, errors.New("empty batch: want {\"edges\": [...]}"))
		return
	}
	if len(req.Edges) > s.MaxBatchEdges {
		wire.WriteError(w, http.StatusRequestEntityTooLarge,
			fmt.Errorf("batch of %d edges exceeds limit %d; split it", len(req.Edges), s.MaxBatchEdges))
		return
	}
	for i, e := range req.Edges {
		if e.From == "" || e.Rel == "" || e.To == "" {
			wire.WriteError(w, http.StatusBadRequest,
				fmt.Errorf("edge %d: from, rel and to are required", i))
			return
		}
		if (e.FromType == "") != (e.ToType == "") {
			wire.WriteError(w, http.StatusBadRequest,
				fmt.Errorf("edge %d: from_type and to_type must be given together or omitted together", i))
			return
		}
	}
	snap, err := gr.Live().ApplyBatch(batchKindEdges, body, func(g *dynamic.Graph) error {
		return applyEdgeBatch(g, req.Edges)
	})
	if err != nil {
		s.writeMutationError(w, err)
		return
	}
	s.finishMutation(w, gr, snap, len(req.Edges), start)
}

// applyEdgeBatch resolves and then applies one edge batch. Resolution is
// read-only and runs first over the whole batch, so a failing batch
// leaves the graph untouched; application afterwards is infallible
// (declare-or-find semantics throughout).
func applyEdgeBatch(g *dynamic.Graph, edges []edgeDoc) error {
	// One name → endpoint-signature index over the graph's relationship
	// types plus the batch's typed declarations (which participate in
	// resolving its untyped edges — a batch is one atomic unit), so
	// resolution is a map lookup per edge instead of a scan of every
	// relationship type.
	byName := map[string]map[[2]string]bool{}
	sign := func(rel string) map[[2]string]bool {
		pairs := byName[rel]
		if pairs == nil {
			pairs = map[[2]string]bool{}
			byName[rel] = pairs
		}
		return pairs
	}
	for r := 0; r < g.Stats().RelTypes; r++ {
		rt := g.Rel(graph.RelTypeID(r))
		sign(rt.Name)[[2]string{g.TypeName(rt.From), g.TypeName(rt.To)}] = true
	}
	for _, e := range edges {
		if e.FromType != "" {
			sign(e.Rel)[[2]string{e.FromType, e.ToType}] = true
		}
	}
	type spec struct{ from, to, fromType, toType, rel string }
	specs := make([]spec, len(edges))
	for i, e := range edges {
		sp := spec{from: e.From, to: e.To, fromType: e.FromType, toType: e.ToType, rel: e.Rel}
		if e.FromType == "" {
			cands := byName[e.Rel]
			switch len(cands) {
			case 0:
				return &resolveError{fmt.Errorf(
					"edge %d: unknown relationship type %q; declare it by sending from_type and to_type", i, e.Rel)}
			case 1:
				for p := range cands {
					sp.fromType, sp.toType = p[0], p[1]
				}
			default:
				return &resolveError{fmt.Errorf(
					"edge %d: relationship name %q is ambiguous (%d endpoint signatures); disambiguate with from_type and to_type", i, e.Rel, len(cands))}
			}
		}
		specs[i] = sp
	}
	for _, sp := range specs {
		ft := g.Type(sp.fromType)
		tt := g.Type(sp.toType)
		rel, err := g.RelType(sp.rel, ft, tt)
		if err != nil {
			return err // unreachable: endpoints were just declared
		}
		if err := g.AddEdge(g.Entity(sp.from, ft), g.Entity(sp.to, tt), rel); err != nil {
			return err // unreachable: ids come from the same graph
		}
	}
	return nil
}

// probeSink validates a triple batch without touching the live graph: it
// counts the directives' sink calls and the edges a real application
// would add, and hands the parser zero ids, which only go back into the
// sink. Decode through a probeSink succeeding guarantees Decode of the
// same bytes through a real sink cannot fail — declaration is upsert
// throughout, so syntax is the only failure mode.
type probeSink struct{ directives, edges int }

func (p *probeSink) Type(string) graph.TypeID {
	p.directives++
	return 0
}

func (p *probeSink) RelType(string, graph.TypeID, graph.TypeID) (graph.RelTypeID, error) {
	p.directives++
	return 0, nil
}

func (p *probeSink) Entity(string, ...graph.TypeID) graph.EntityID {
	p.directives++
	return 0
}

func (p *probeSink) Edge(graph.EntityID, graph.EntityID, graph.RelTypeID) error {
	p.directives++
	p.edges++
	return nil
}

// liveSink adapts dynamic.Graph to triple.Sink.
type liveSink struct{ g *dynamic.Graph }

func (s liveSink) Type(name string) graph.TypeID { return s.g.Type(name) }

func (s liveSink) RelType(name string, from, to graph.TypeID) (graph.RelTypeID, error) {
	return s.g.RelType(name, from, to)
}

func (s liveSink) Entity(name string, types ...graph.TypeID) graph.EntityID {
	return s.g.Entity(name, types...)
}

func (s liveSink) Edge(from, to graph.EntityID, rel graph.RelTypeID) error {
	return s.g.AddEdge(from, to, rel)
}

// handleTriples applies a native triple-format batch to a mutable graph.
// The body is the same line-oriented format triple.Unmarshal reads (type,
// rel, entity and edge directives), parsed and validated in full before
// the graph is touched.
func (s *Server) handleTriples(w http.ResponseWriter, r *http.Request, gr *Graph) {
	start := time.Now()
	body, ok := s.readBody(w, r)
	if !ok {
		return
	}
	probe := &probeSink{}
	if err := triple.Decode(bytes.NewReader(body), probe); err != nil {
		wire.WriteError(w, http.StatusBadRequest, err)
		return
	}
	if probe.directives == 0 {
		wire.WriteError(w, http.StatusBadRequest, errors.New("empty batch: want native triple-format directives"))
		return
	}
	if probe.edges > s.MaxBatchEdges {
		wire.WriteError(w, http.StatusRequestEntityTooLarge,
			fmt.Errorf("batch of %d edges exceeds limit %d; split it", probe.edges, s.MaxBatchEdges))
		return
	}
	snap, err := gr.Live().ApplyBatch(batchKindTriples, body, func(g *dynamic.Graph) error {
		return triple.Decode(bytes.NewReader(body), liveSink{g})
	})
	if err != nil {
		s.writeMutationError(w, err)
		return
	}
	s.finishMutation(w, gr, snap, probe.edges, start)
}
