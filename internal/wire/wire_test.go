package wire

import (
	"bytes"
	"context"
	"errors"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
)

// --- Response half ---

func TestETagMatches(t *testing.T) {
	const etag = `"0123456789abcdef0123456789abcdef"`
	tests := []struct {
		name   string
		header string
		want   bool
	}{
		{"exact", etag, true},
		{"weak prefix", "W/" + etag, true},
		{"list with spaces", `"other" ,  ` + etag + ` , "more"`, true},
		{"weak in list", `"other", W/` + etag, true},
		{"miss", `"0123456789abcdef0123456789abcdee"`, false},
		{"unquoted", strings.Trim(etag, `"`), false},
		{"star is the caller's", "*", false},
		{"empty", "", false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := ETagMatches(tt.header, etag); got != tt.want {
				t.Errorf("ETagMatches(%q) = %v, want %v", tt.header, got, tt.want)
			}
		})
	}
}

func TestStrongETag(t *testing.T) {
	shape := regexp.MustCompile(`^"[0-9a-f]{32}"$`)
	tests := []struct {
		name string
		in   string
	}{
		{"empty", ""},
		{"scope", "fleet-graphs\nalpha=\"x\""},
		{"non-ascii", "Amélie|k=2"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			a, b := StrongETag([]byte(tt.in)), StrongETag([]byte(tt.in))
			if a != b {
				t.Errorf("StrongETag not stable: %s then %s", a, b)
			}
			if !shape.MatchString(a) {
				t.Errorf("StrongETag(%q) = %s, want a quoted 32-hex-digit tag", tt.in, a)
			}
			if other := StrongETag([]byte(tt.in + "!")); other == a {
				t.Errorf("StrongETag(%q) equals the tag of a different input", tt.in)
			}
		})
	}
}

func TestRequireRead(t *testing.T) {
	tests := []struct {
		method string
		ok     bool
	}{
		{http.MethodGet, true},
		{http.MethodHead, true},
		{http.MethodPost, false},
		{http.MethodDelete, false},
		{http.MethodPut, false},
	}
	for _, tt := range tests {
		t.Run(tt.method, func(t *testing.T) {
			rec := httptest.NewRecorder()
			got := RequireRead(rec, httptest.NewRequest(tt.method, "/v1/graphs", nil))
			if got != tt.ok {
				t.Fatalf("RequireRead(%s) = %v, want %v", tt.method, got, tt.ok)
			}
			if tt.ok {
				if rec.Body.Len() != 0 || len(rec.Header()) != 0 {
					t.Errorf("admitted %s but wrote headers %v, body %q", tt.method, rec.Header(), rec.Body)
				}
				return
			}
			if rec.Code != http.StatusMethodNotAllowed || rec.Header().Get("Allow") != "GET, HEAD" {
				t.Errorf("refused %s with %d, Allow %q; want 405, \"GET, HEAD\"", tt.method, rec.Code, rec.Header().Get("Allow"))
			}
			if want := `{"error":"method ` + tt.method + ` not allowed"}` + "\n"; rec.Body.String() != want {
				t.Errorf("body %q, want %q", rec.Body, want)
			}
		})
	}
}

func TestWriteBodies(t *testing.T) {
	tests := []struct {
		name   string
		write  func(http.ResponseWriter)
		status int
		body   string
	}{
		{"error", func(w http.ResponseWriter) { WriteError(w, http.StatusConflict, errors.New("fenced at 3")) },
			http.StatusConflict, `{"error":"fenced at 3"}` + "\n"},
		{"json", func(w http.ResponseWriter) { WriteJSON(w, map[string]any{"moved": []string{"a"}, "added": "s"}) },
			http.StatusOK, `{"added":"s","moved":["a"]}` + "\n"},
		{"json keeps HTML", func(w http.ResponseWriter) { WriteJSON(w, map[string]string{"cell": "<b>&</b>"}) },
			http.StatusOK, `{"cell":"<b>&</b>"}` + "\n"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			rec := httptest.NewRecorder()
			tt.write(rec)
			if rec.Code != tt.status {
				t.Errorf("status %d, want %d", rec.Code, tt.status)
			}
			if ct := rec.Header().Get("Content-Type"); ct != "application/json; charset=utf-8" {
				t.Errorf("Content-Type %q", ct)
			}
			if rec.Body.String() != tt.body {
				t.Errorf("body %q, want %q", rec.Body, tt.body)
			}
		})
	}
}

// TestAppendJSONMatchesMarshal: the hand-written string and float
// appenders write what MarshalJSON writes for the same value: every
// single byte, and the runes and floats at each escape and notation
// boundary. NaN and ±Inf fail in both, leaving dst as it was.
func TestAppendJSONMatchesMarshal(t *testing.T) {
	strs := []string{"", "plain", `quote " and \ backslash`, "<b>&amp;</b>", "\x7f",
		"tab\tnl\ncr\rbs\bff\f", "\x00\x01\x1f", "\xe2\x80\xa8 \xe2\x80\xa9 \xe2\x80\xaa",
		"\xff", "a\xc3", "\xed\xa0\x80", "\xf4\x90\x80\x80", "Amélie 日本 €", "\xef\xbf\xbd"}
	for b := 0; b < 256; b++ {
		strs = append(strs, string([]byte{byte(b)}), "x"+string([]byte{byte(b)})+"y")
	}
	for _, s := range strs {
		want, err := MarshalJSON(s)
		if err != nil {
			t.Fatal(err)
		}
		if got := AppendJSONString([]byte("prefix "), s); string(got) != "prefix "+strings.TrimSuffix(string(want), "\n") {
			t.Errorf("AppendJSONString(%q) = %q, want %q", s, got, want)
		}
	}
	floats := []float64{0, math.Copysign(0, -1), 1, -1, 0.1, 1.5, 1e20, 1e21, -1e21, 1e-6, 1e-7, -1e-7,
		math.Nextafter(1e21, 0), math.Nextafter(1e-6, 0), 1e-300, 5e-324, math.MaxFloat64, 123456789.125,
		1.0 / 3, 2.5e-8, 1e100, 1e-100}
	for _, f := range floats {
		want, err := MarshalJSON(f)
		if err != nil {
			t.Fatal(err)
		}
		got, err := AppendJSONFloat(nil, f)
		if err != nil || string(got) != strings.TrimSuffix(string(want), "\n") {
			t.Errorf("AppendJSONFloat(%v) = %q, %v; want %q", f, got, err, want)
		}
	}
	for _, f := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		_, want := MarshalJSON(f)
		got, err := AppendJSONFloat([]byte("kept"), f)
		if want == nil || err == nil || err.Error() != want.Error() || string(got) != "kept" {
			t.Errorf("AppendJSONFloat(%v) = %q, %v; want dst kept and %v", f, got, err, want)
		}
	}
}

// --- Request half ---

func TestFence(t *testing.T) {
	tests := []struct {
		name    string
		stamp   string // "" = header absent
		fence   uint64
		stamped bool
		wantErr bool
	}{
		{"absent", "", 0, false, false},
		{"zero stamp", "0", 0, true, false},
		{"stamp", "7", 7, true, false},
		{"max", "18446744073709551615", 1<<64 - 1, true, false},
		{"negative", "-1", 0, true, true},
		{"not a number", "abc", 0, true, true},
		{"overflow", "18446744073709551616", 0, true, true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			h := http.Header{}
			if tt.stamp != "" {
				h.Set(FenceHeader, tt.stamp)
			}
			f, stamped, err := Fence(h)
			if (err != nil) != tt.wantErr {
				t.Fatalf("Fence(%q) error %v, want error %v", tt.stamp, err, tt.wantErr)
			}
			if err != nil {
				if !strings.Contains(err.Error(), FenceHeader) || !strings.Contains(err.Error(), tt.stamp) {
					t.Errorf("error %q names neither the header nor the stamp", err)
				}
				return
			}
			if f != tt.fence || stamped != tt.stamped {
				t.Errorf("Fence(%q) = %d, %v; want %d, %v", tt.stamp, f, stamped, tt.fence, tt.stamped)
			}
		})
	}
}

func TestSetFence(t *testing.T) {
	tests := []struct {
		fence uint64
		want  string // "" = header absent
	}{
		{0, ""},
		{1, "1"},
		{42, "42"},
		{1<<64 - 1, "18446744073709551615"},
	}
	for _, tt := range tests {
		t.Run(strconv.FormatUint(tt.fence, 10), func(t *testing.T) {
			h := http.Header{}
			SetFence(h, tt.fence)
			if vs, present := h[FenceHeader]; (tt.want == "") == present || (present && vs[0] != tt.want) {
				t.Fatalf("SetFence(%d) left %q (present %v), want %q", tt.fence, vs, present, tt.want)
			}
			f, stamped, err := Fence(h)
			if err != nil || f != tt.fence || stamped != (tt.fence != 0) {
				t.Errorf("round trip of %d = %d, %v, %v", tt.fence, f, stamped, err)
			}
		})
	}
}

// seen is one request as a test peer received it.
type seen struct {
	method, contentType, fence, body string
	fenceSent                        bool
}

// recordingPeer answers every request through answer and hands what it
// received to the returned channel.
func recordingPeer(t *testing.T, answer http.HandlerFunc) (*httptest.Server, <-chan seen) {
	t.Helper()
	got := make(chan seen, 1)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		b, _ := io.ReadAll(r.Body)
		_, sent := r.Header[FenceHeader]
		got <- seen{r.Method, r.Header.Get("Content-Type"), r.Header.Get(FenceHeader), string(b), sent}
		answer(w, r)
	}))
	t.Cleanup(ts.Close)
	return ts, got
}

func TestCallRequest(t *testing.T) {
	tests := []struct {
		name   string
		method string
		fence  uint64
		in     any
		want   seen
	}{
		{"get", http.MethodGet, 0, nil, seen{method: "GET"}},
		{"stamped post, no body", http.MethodPost, 3, nil,
			seen{method: "POST", fence: "3", fenceSent: true}},
		{"json body", http.MethodPost, 0, struct {
			Fence uint64 `json:"fence"`
		}{1}, seen{method: "POST", contentType: "application/json", body: `{"fence":1}`}},
		{"stamped delete", http.MethodDelete, 9, nil,
			seen{method: "DELETE", fence: "9", fenceSent: true}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			ts, got := recordingPeer(t, func(w http.ResponseWriter, r *http.Request) {
				w.Header().Set("ETag", `"e"`)
				WriteJSON(w, map[string]int{"fence": 5})
			})
			var out struct {
				Fence int `json:"fence"`
			}
			h, err := Call(context.Background(), ts.Client(), tt.method, ts.URL+"/x", tt.fence, tt.in, &out)
			if err != nil {
				t.Fatal(err)
			}
			if saw := <-got; saw != tt.want {
				t.Errorf("peer saw %+v, want %+v", saw, tt.want)
			}
			if out.Fence != 5 {
				t.Errorf("decoded %+v, want fence 5", out)
			}
			if h.Get("ETag") != `"e"` {
				t.Errorf("returned headers %v lack the answer's ETag", h)
			}
		})
	}
}

func TestCallStatusError(t *testing.T) {
	long := strings.Repeat("x", 10<<10)
	tests := []struct {
		name   string
		answer http.HandlerFunc
		code   int
		msg    string
	}{
		{"404 error doc", func(w http.ResponseWriter, r *http.Request) {
			WriteError(w, http.StatusNotFound, errors.New(`no graph "g"; see /v1/graphs`))
		}, http.StatusNotFound, `no graph "g"; see /v1/graphs`},
		{"409 error doc", func(w http.ResponseWriter, r *http.Request) {
			WriteError(w, http.StatusConflict, errors.New("follower epoch 3 is ahead"))
		}, http.StatusConflict, "follower epoch 3 is ahead"},
		{"500 raw body", func(w http.ResponseWriter, r *http.Request) {
			http.Error(w, "disk full", http.StatusInternalServerError)
		}, http.StatusInternalServerError, "disk full"},
		{"500 JSON without error field", func(w http.ResponseWriter, r *http.Request) {
			w.WriteHeader(http.StatusInternalServerError)
			io.WriteString(w, `{"reason":"x"}`)
		}, http.StatusInternalServerError, `{"reason":"x"}`},
		{"500 empty body", func(w http.ResponseWriter, r *http.Request) {
			w.WriteHeader(http.StatusInternalServerError)
		}, http.StatusInternalServerError, ""},
		{"raw body capped at 4 KiB", func(w http.ResponseWriter, r *http.Request) {
			w.WriteHeader(http.StatusBadGateway)
			io.WriteString(w, long)
		}, http.StatusBadGateway, long[:4<<10]},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			ts := httptest.NewServer(tt.answer)
			defer ts.Close()
			var out struct {
				Error string `json:"error"`
			}
			_, err := Call(context.Background(), ts.Client(), http.MethodGet, ts.URL, 0, nil, &out)
			var se *StatusError
			if !errors.As(err, &se) {
				t.Fatalf("Call error %v (%T), want a *StatusError", err, err)
			}
			if se.Code != tt.code || se.Msg != tt.msg {
				t.Errorf("StatusError{%d, %.40q}, want {%d, %.40q}", se.Code, se.Msg, tt.code, tt.msg)
			}
			if out.Error != "" {
				t.Errorf("a refusal was decoded into out: %+v", out)
			}
		})
	}
}

func TestStatusErrorText(t *testing.T) {
	tests := []struct {
		err  StatusError
		want string
	}{
		{StatusError{409, "follower epoch 3 is ahead"}, "status 409: follower epoch 3 is ahead"},
		{StatusError{500, ""}, "status 500"},
	}
	for _, tt := range tests {
		if got := tt.err.Error(); got != tt.want {
			t.Errorf("%+v.Error() = %q, want %q", tt.err, got, tt.want)
		}
	}
}

// TestCallReusesConnection pins the drain: whether the peer answers 200
// (decoded, trailing bytes left) or 404 (its reason read), the body is
// consumed and closed, so sequential calls share one connection.
func TestCallReusesConnection(t *testing.T) {
	var conns atomic.Int32
	ts := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/missing" {
			WriteError(w, http.StatusNotFound, errors.New("no such graph"))
			return
		}
		WriteJSON(w, map[string]string{"graph": "g", "pad": strings.Repeat("p", 8<<10)})
	}))
	ts.Config.ConnState = func(_ net.Conn, s http.ConnState) {
		if s == http.StateNew {
			conns.Add(1)
		}
	}
	ts.Start()
	defer ts.Close()
	client := ts.Client()
	for i := 0; i < 20; i++ {
		path := "/ok"
		if i%3 == 1 {
			path = "/missing"
		}
		var out struct {
			Graph string `json:"graph"`
		}
		_, err := Call(context.Background(), client, http.MethodGet, ts.URL+path, 0, nil, &out)
		var se *StatusError
		switch {
		case path == "/ok" && (err != nil || out.Graph != "g"):
			t.Fatalf("call %d: %v, %+v", i, err, out)
		case path == "/missing" && (!errors.As(err, &se) || se.Code != http.StatusNotFound):
			t.Fatalf("call %d: %v, want a 404 StatusError", i, err)
		}
	}
	if n := conns.Load(); n != 1 {
		t.Errorf("20 sequential calls opened %d connections, want 1", n)
	}
}

func TestForward(t *testing.T) {
	backend := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		b, _ := io.ReadAll(r.Body)
		w.Header().Set("ETag", `"abc"`)
		w.Header().Add("X-Multi", "1")
		w.Header().Add("X-Multi", "2")
		w.Header().Set(FenceHeader, r.Header.Get(FenceHeader))
		w.WriteHeader(http.StatusAccepted)
		io.WriteString(w, r.Method+" "+r.URL.RequestURI()+" "+string(b))
	}))
	defer backend.Close()
	dead := httptest.NewServer(http.NotFoundHandler())
	deadURL := dead.URL
	dead.Close()

	tests := []struct {
		name    string
		base    string
		reached bool
	}{
		{"verbatim", backend.URL, true},
		{"unreachable", deadURL, false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			r := httptest.NewRequest(http.MethodPost, "/v1/graphs/g/edges?x=1", strings.NewReader("batch"))
			SetFence(r.Header, 4)
			rec := httptest.NewRecorder()
			if got := Forward(rec, r, backend.Client(), tt.base); got != tt.reached {
				t.Fatalf("Forward = %v, want %v", got, tt.reached)
			}
			if !tt.reached {
				if rec.Body.Len() != 0 || len(rec.Header()) != 0 {
					t.Errorf("unreachable base wrote headers %v, body %q", rec.Header(), rec.Body)
				}
				return
			}
			if rec.Code != http.StatusAccepted {
				t.Errorf("status %d, want 202", rec.Code)
			}
			if want := "POST /v1/graphs/g/edges?x=1 batch"; rec.Body.String() != want {
				t.Errorf("body %q, want %q", rec.Body, want)
			}
			h := rec.Header()
			if h.Get("ETag") != `"abc"` || len(h["X-Multi"]) != 2 || h.Get(FenceHeader) != "4" {
				t.Errorf("headers not copied verbatim: %v", h)
			}
		})
	}
}

// forwardBody is a deterministic body of n bytes.
func forwardBody(n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i*7 + i>>9)
	}
	return b
}

// forwardingPair starts a backend that answers GET /size/<n> with a body
// of n bytes (Content-Length set, or streamed without one when the query
// says chunked=1), HEAD with the same headers, and 304 to a matching
// If-None-Match; and a router in front of it whose every request goes
// through Forward. It serves the sizes TestForwardBodiesOverSocket and
// BenchmarkForward ask for, and returns the router's URL.
func forwardingPair(t testing.TB) string {
	bodies := map[int][]byte{}
	for _, n := range []int{0, 511, 512, 20 << 10, 40 << 10, 1 << 20} {
		bodies[n] = forwardBody(n)
	}
	backend := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		n, _ := strconv.Atoi(strings.TrimPrefix(r.URL.Path, "/size/"))
		body, ok := bodies[n]
		if !ok {
			http.NotFound(w, r)
			return
		}
		etag := `"size-` + strconv.Itoa(n) + `"`
		w.Header().Set("ETag", etag)
		if ETagMatches(r.Header.Get("If-None-Match"), etag) {
			w.WriteHeader(http.StatusNotModified)
			return
		}
		if r.URL.Query().Get("chunked") == "1" {
			w.WriteHeader(http.StatusOK)
			w.(http.Flusher).Flush() // headers go out first, so no Content-Length
		} else {
			w.Header().Set("Content-Length", strconv.Itoa(n))
		}
		if r.Method != http.MethodHead {
			_, _ = w.Write(body)
		}
	}))
	t.Cleanup(backend.Close)
	router := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !Forward(w, r, backend.Client(), backend.URL) {
			WriteError(w, http.StatusBadGateway, errors.New("backend unreachable"))
		}
	}))
	t.Cleanup(router.Close)
	return router.URL
}

// TestForwardBodiesOverSocket forwards bodies around the copy buffer's
// edges through a socket router, with and without a Content-Length: each
// arrives byte for byte with the backend's status and length, and HEAD
// and 304 answers arrive with their headers and no body.
func TestForwardBodiesOverSocket(t *testing.T) {
	router := forwardingPair(t)
	get := func(method, path, inm string) (*http.Response, []byte) {
		t.Helper()
		req, err := http.NewRequest(method, router+path, nil)
		if err != nil {
			t.Fatal(err)
		}
		if inm != "" {
			req.Header.Set("If-None-Match", inm)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp, body
	}
	for _, n := range []int{0, 511, 512, 40 << 10, 1 << 20} {
		for _, chunked := range []bool{false, true} {
			path := "/size/" + strconv.Itoa(n)
			if chunked {
				path += "?chunked=1"
			}
			resp, body := get(http.MethodGet, path, "")
			if resp.StatusCode != http.StatusOK || !bytes.Equal(body, forwardBody(n)) {
				t.Fatalf("GET %s: status %d, %d bytes, want 200 and the backend's %d bytes", path, resp.StatusCode, len(body), n)
			}
			if !chunked && resp.ContentLength != int64(n) {
				t.Errorf("GET %s: Content-Length %d, want %d", path, resp.ContentLength, n)
			}
		}
		path := "/size/" + strconv.Itoa(n)
		resp, body := get(http.MethodHead, path, "")
		if resp.StatusCode != http.StatusOK || len(body) != 0 || resp.Header.Get("Content-Length") != strconv.Itoa(n) {
			t.Errorf("HEAD %s: status %d, Content-Length %q, %d body bytes", path, resp.StatusCode, resp.Header.Get("Content-Length"), len(body))
		}
		etag := `"size-` + strconv.Itoa(n) + `"`
		resp, body = get(http.MethodGet, path, etag)
		if resp.StatusCode != http.StatusNotModified || len(body) != 0 || resp.Header.Get("ETag") != etag {
			t.Errorf("GET %s If-None-Match: status %d, ETag %q, %d body bytes", path, resp.StatusCode, resp.Header.Get("ETag"), len(body))
		}
	}
}

// discardResponse is a ResponseWriter that keeps only its headers, the
// shape of a wrapping middleware's writer: it has no ReadFrom.
type discardResponse struct{ h http.Header }

func (d *discardResponse) Header() http.Header         { return d.h }
func (d *discardResponse) Write(p []byte) (int, error) { return len(p), nil }
func (d *discardResponse) WriteHeader(int)             {}

// BenchmarkForward: one 20 KB response through Forward, into an
// in-process writer and through a socket router. Run with -benchmem; the
// bytes per op include the transport's own per-request allocations.
func BenchmarkForward(b *testing.B) {
	const path = "/size/20480"
	b.Run("in-process", func(b *testing.B) {
		body := forwardBody(20 << 10)
		backend := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Length", "20480")
			_, _ = w.Write(body)
		}))
		defer backend.Close()
		c := backend.Client()
		r := httptest.NewRequest(http.MethodGet, path, nil)
		w := &discardResponse{h: http.Header{}}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for k := range w.h {
				delete(w.h, k)
			}
			if !Forward(w, r, c, backend.URL) {
				b.Fatal("backend unreachable")
			}
		}
	})
	b.Run("socket", func(b *testing.B) {
		router := forwardingPair(b)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			resp, err := http.Get(router + path)
			if err != nil {
				b.Fatal(err)
			}
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
	})
}
