// Package wire is the HTTP dialect previewd (internal/service),
// previewrouter (internal/fleet) and loadgen share, in both directions.
// Responses: the X-Previewtables-* headers, the JSON body and error
// encodings, strong ETags and their If-None-Match comparison, and the
// read-method gate — every side writes through it, so a client sees one
// dialect whether a response came from a shard or from the router.
// Requests: the JSON control calls nodes, the router and loadgen send
// each other (Call, which decodes a refusal's error body back into a
// StatusError), the router's verbatim hop (Forward), and the fence
// stamp every fenced request and forwarded replication response carries
// (SetFence writes it, Fence reads it).
package wire

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"time"
	"unicode/utf8"
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
	// proxied writes, on forwarded replication responses (followers
	// adopt it from there) and on its promote, adopt and drop calls, and
	// 409 refusals echo the node's own fence in it.
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

// SetFence stamps fence on h. Zero is the unfenced state, which is never
// stamped: the header stays absent.
func SetFence(h http.Header, fence uint64) {
	if fence != 0 {
		h.Set(FenceHeader, strconv.FormatUint(fence, 10))
	}
}

// Fence reads the fence stamped on h. stamped reports whether the header
// is present at all — a node tells an unstamped write from one stamped
// 0 — and a stamp that is not a decimal uint64 is an error.
func Fence(h http.Header) (fence uint64, stamped bool, err error) {
	stamp := h.Get(FenceHeader)
	if stamp == "" {
		return 0, false, nil
	}
	fence, err = strconv.ParseUint(stamp, 10, 64)
	if err != nil {
		return 0, true, fmt.Errorf("bad %s header %q: %v", FenceHeader, stamp, err)
	}
	return fence, true, nil
}

// MarshalJSON serializes one document as a response body: no HTML
// escaping, trailing newline, byte-identical to what WriteJSON streams.
// It encodes the cold bodies: a node's graph list and stats, and the
// router's merged list and fleet status. A preview body is appended by
// hand from AppendJSONString and AppendJSONFloat instead, which write
// the bytes MarshalJSON would; the tests hold the two to it.
func MarshalJSON(v any) ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(v); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// AppendJSONString appends s as a JSON string, as MarshalJSON encodes
// it: '"', '\\' and the control bytes \b, \f, \n, \r and \t take their
// short escapes, every other byte below 0x20 is \u00XX, an invalid UTF-8
// byte becomes \ufffd, U+2028 and U+2029 are escaped, and '<', '>' and
// '&' stay as they are.
func AppendJSONString(dst []byte, s string) []byte {
	const hex = "0123456789abcdef"
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if b := s[i]; b < utf8.RuneSelf {
			if b >= 0x20 && b != '"' && b != '\\' {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '"', '\\':
				dst = append(dst, '\\', b)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hex[b>>4], hex[b&0xF])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case c == utf8.RuneError && size == 1:
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', 'f', 'f', 'f', 'd')
		case c == 0x2028 || c == 0x2029:
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hex[c&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}

// AppendJSONFloat appends f as a JSON number, as MarshalJSON encodes a
// float64: the shortest decimal that round-trips, in 'e' notation with
// no leading zero in a negative exponent when f is nonzero and |f| is
// below 1e-6 or at least 1e21. NaN and ±Inf have no JSON form: they
// return the *json.UnsupportedValueError MarshalJSON returns, and dst
// as it was.
func AppendJSONFloat(dst []byte, f float64) ([]byte, error) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return dst, &json.UnsupportedValueError{Value: reflect.ValueOf(f), Str: strconv.FormatFloat(f, 'g', -1, 64)}
	}
	abs := math.Abs(f)
	format := byte('f')
	if abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if n := len(dst); format == 'e' && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
		// e-07 → e-7
		dst[n-2] = dst[n-1]
		dst = dst[:n-1]
	}
	return dst, nil
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

// WriteJSON answers 200 with v as a JSON body, encoded as MarshalJSON
// does.
func WriteJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(v)
}

// StatusError is a peer's non-200 answer: its status code and the reason
// it gave.
type StatusError struct {
	Code int
	Msg  string
}

func (e *StatusError) Error() string {
	if e.Msg == "" {
		return fmt.Sprintf("status %d", e.Code)
	}
	return fmt.Sprintf("status %d: %s", e.Code, e.Msg)
}

// ReadError reads a non-200 response's reason: the error field of the
// body WriteError writes, or the raw body, trimmed, when it is not one.
// It reads at most 4 KiB; closing the body stays the caller's job.
func ReadError(resp *http.Response) *StatusError {
	raw, _ := io.ReadAll(io.LimitReader(resp.Body, 4<<10))
	var doc errorDoc
	if err := json.Unmarshal(raw, &doc); err != nil || doc.Error == "" {
		doc.Error = strings.TrimSpace(string(raw))
	}
	return &StatusError{Code: resp.StatusCode, Msg: doc.Error}
}

// Call sends one JSON control request: in, when non-nil, as a JSON body,
// and fence stamped when non-zero. A 200 answer is decoded into out
// (when non-nil) and its headers returned; any other status comes back
// as a *StatusError. The response body is always drained and closed, so
// the connection returns to the client's pool.
func Call(ctx context.Context, c *http.Client, method, url string, fence uint64, in, out any) (http.Header, error) {
	var body io.Reader
	if in != nil {
		b, err := json.Marshal(in)
		if err != nil {
			return nil, err
		}
		body = bytes.NewReader(b)
	}
	req, err := http.NewRequestWithContext(ctx, method, url, body)
	if err != nil {
		return nil, err
	}
	if in != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	SetFence(req.Header, fence)
	resp, err := c.Do(req)
	if err != nil {
		return nil, err
	}
	defer func() {
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}()
	if resp.StatusCode != http.StatusOK {
		return nil, ReadError(resp)
	}
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			return nil, err
		}
	}
	return resp.Header, nil
}

// Forward re-issues r against base through c and copies the answer back
// verbatim — status, every header, every body byte — adding and
// stripping nothing: ETags, conditional 304s, epoch and leader headers
// and HEAD semantics all stay the backend's own. It returns false, with
// nothing written, only when base could not be reached, so the caller
// can fall back; once any byte is written the response is committed.
func Forward(w http.ResponseWriter, r *http.Request, c *http.Client, base string) bool {
	out, err := http.NewRequestWithContext(r.Context(), r.Method, base+r.URL.RequestURI(), r.Body)
	if err != nil {
		WriteError(w, http.StatusBadGateway, err)
		return true
	}
	out.Header = r.Header.Clone()
	resp, err := c.Do(out)
	if err != nil {
		return false
	}
	defer resp.Body.Close()
	h := w.Header()
	for k, vs := range resp.Header {
		for _, v := range vs {
			h.Add(k, v)
		}
	}
	w.WriteHeader(resp.StatusCode)
	buf := copyBufs.Get().(*[]byte)
	_, _ = io.CopyBuffer(writerOnly{w}, readerOnly{resp.Body}, *buf)
	copyBufs.Put(buf)
	return true
}

// copyBufs holds Forward's body-copy buffers, io.Copy's 32 KiB size, so
// a routed response allocates none.
var copyBufs = sync.Pool{New: func() any { b := make([]byte, 32<<10); return &b }}

// writerOnly and readerOnly hide every method but Write and Read, so
// io.CopyBuffer uses the pooled buffer instead of a ReadFrom or WriteTo
// that allocates its own: a wrapping ResponseWriter's, or net/http's
// TCPConn fallback behind a response with a Content-Length.
type writerOnly struct{ io.Writer }

type readerOnly struct{ io.Reader }
