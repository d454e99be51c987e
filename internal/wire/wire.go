// Package wire is the HTTP dialect previewd (internal/service) and
// previewrouter (internal/fleet) share: the X-Previewtables-* headers,
// the JSON body and error encodings, strong ETags and their
// If-None-Match comparison, and the read-method gate. Both sides write
// through it, so a client sees one dialect whether a response came from
// a shard or from the router.
package wire

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"time"
)

const (
	// ElapsedHeader carries the wall time one request cost, in
	// fractional milliseconds. Timing is a per-request datum, so it
	// rides in a header: in the body it would make two renders of the
	// same epoch differ, breaking both the response cache's byte-identity
	// contract and the replication differential's literal comparison.
	ElapsedHeader = "X-Previewtables-Elapsed"

	// EpochHeader carries an epoch out of band: the durable epoch on wal
	// responses, the snapshot's epoch on checkpoint responses.
	EpochHeader = "X-Previewtables-Epoch"

	// LeaderHeader names the leader on a follower's 503 write refusals.
	LeaderHeader = "X-Previewtables-Leader"

	// FenceHeader carries a fencing epoch: the router stamps it on
	// proxied writes and on forwarded replication responses (followers
	// adopt it from there), carries it on promote requests, and 409
	// refusals echo the node's own fence in it.
	FenceHeader = "X-Previewtables-Fence"
)

// StrongETag mints the strong ETag for b: the first 16 bytes of its
// sha256, hex-encoded and quoted. Minting is a pure function, so equal
// inputs give equal validators on every node; the hash keeps graph names
// and parameters out of the wire format and makes the tag's length
// uniform. It takes bytes so a caller's []byte(a + b) is the only copy.
func StrongETag(b []byte) string {
	sum := sha256.Sum256(b)
	return `"` + hex.EncodeToString(sum[:16]) + `"`
}

// ETagMatches reports whether an If-None-Match header names etag. Weak
// comparison (RFC 9110 §8.8.3.2): a W/ prefix is ignored, so a client
// that downgraded the tag still revalidates successfully. The "*" form
// is NOT handled here: whether a representation exists is the caller's
// knowledge.
func ETagMatches(header, etag string) bool {
	for _, part := range strings.Split(header, ",") {
		t := strings.TrimSpace(part)
		t = strings.TrimPrefix(t, "W/")
		if t == etag {
			return true
		}
	}
	return false
}

// MarshalJSON serializes one document as a response body: no HTML
// escaping, trailing newline. Cached and spliced bodies go through it,
// so they are byte-identical to what a streaming encoder would write.
func MarshalJSON(v any) ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(v); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// SetElapsed stamps the wall time since start on the response headers.
func SetElapsed(h http.Header, start time.Time) {
	h.Set(ElapsedHeader, strconv.FormatFloat(float64(time.Since(start).Microseconds())/1000, 'f', -1, 64))
}

// RequireRead admits GET and HEAD, answering anything else with 405.
func RequireRead(w http.ResponseWriter, r *http.Request) bool {
	if r.Method == http.MethodGet || r.Method == http.MethodHead {
		return true
	}
	w.Header().Set("Allow", "GET, HEAD")
	WriteError(w, http.StatusMethodNotAllowed, fmt.Errorf("method %s not allowed", r.Method))
	return false
}

// errorDoc is the JSON error body of every non-2xx response.
type errorDoc struct {
	Error string `json:"error"`
}

// WriteError answers with status and a JSON error body naming err.
func WriteError(w http.ResponseWriter, status int, err error) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(errorDoc{Error: err.Error()})
}
