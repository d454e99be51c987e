package fleet

// Route discipline through the front door. The service package proves
// the discipline on a single node (TestReplicationRouteDiscipline);
// this table proves the router preserves it end to end: resource
// existence first (404 for any method on a route that isn't there),
// then method (405 with an accurate Allow), then role (503 with an
// X-Previewtables-Leader pointer on a write aimed at a replica), and
// HEAD behaving as GET-without-body — same status, same ETag, zero
// bytes — on every read route the router serves or forwards.

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"github.com/uta-db/previewtables/internal/wire"
)

func TestRouterRouteDiscipline(t *testing.T) {
	const g = "solo"
	h := startFleet(t, []string{"alpha"}, []string{g}, 1, RouterOptions{Logf: t.Logf})
	h.mustPost(g, writeBody(g, 0))
	h.quiesce()
	follower := h.fprocs["alpha"][0].ts.URL

	str := func(s string) *string { return &s }
	type want struct {
		status int
		allow  *string
		leader bool // response must carry X-Previewtables-Leader
	}
	cases := []struct {
		name   string
		base   string
		method string
		path   string
		want   want
	}{
		// Existence beats method: unknown routes 404 whatever the verb,
		// on the router's own surface and through the forwarding path.
		{"unknown route", h.ts.URL, "GET", "/v1/nope", want{status: 404}},
		{"unknown route write", h.ts.URL, "POST", "/v1/nope", want{status: 404}},
		{"unknown graph", h.ts.URL, "GET", "/v1/graphs/missing/stats", want{status: 404}},
		{"unknown graph action", h.ts.URL, "POST", "/v1/graphs/" + g + "/nope", want{status: 404}},
		// The node-level promote action lives on replica processes; the
		// router is nobody's replica, so the resource is absent for any
		// method — 404 before 405, exactly as on a leader.
		{"promote via router", h.ts.URL, "POST", "/v1/replication/promote", want{status: 404}},
		{"promote via router wrong method", h.ts.URL, "GET", "/v1/replication/promote", want{status: 404}},

		// Method checks on the router's own routes and on forwarded ones.
		{"merged list wrong method", h.ts.URL, "DELETE", "/v1/graphs", want{status: 405, allow: str("GET, HEAD")}},
		{"fleet doc wrong method", h.ts.URL, "POST", "/v1/fleet", want{status: 405, allow: str("GET, HEAD")}},
		{"healthz wrong method", h.ts.URL, "POST", "/healthz", want{status: 405, allow: str("GET, HEAD")}},
		{"write route read method", h.ts.URL, "GET", "/v1/graphs/" + g + "/edges", want{status: 405, allow: str("POST")}},
		{"replication status wrong method", h.ts.URL, "POST", "/v1/replication/" + g + "/status", want{status: 405, allow: str("GET, HEAD")}},

		// The membership admin routes obey the same discipline: existence
		// first (an unknown shard id 404s on DELETE, a deeper path is no
		// route at all), then method with an accurate Allow, then the
		// request's own validity (malformed spec 400, duplicate id 409,
		// last shard 409).
		{"shard add wrong method", h.ts.URL, "GET", "/v1/fleet/shards", want{status: 405, allow: str("POST")}},
		{"shard remove wrong method", h.ts.URL, "GET", "/v1/fleet/shards/alpha", want{status: 405, allow: str("DELETE")}},
		{"shard remove unknown", h.ts.URL, "DELETE", "/v1/fleet/shards/nope", want{status: 404}},
		{"shard route too deep", h.ts.URL, "DELETE", "/v1/fleet/shards/alpha/extra", want{status: 404}},
		{"shard add bad body", h.ts.URL, "POST", "/v1/fleet/shards", want{status: 400}},
		{"shard remove last", h.ts.URL, "DELETE", "/v1/fleet/shards/alpha", want{status: 409}},

		// Role: a write aimed straight at a replica is refused with a
		// pointer to the node it tails — the router, which is exactly
		// where the client should have sent it.
		{"follower write", follower, "POST", "/v1/graphs/" + g + "/edges", want{status: 503, leader: true}},

		// Reads forward cleanly, replication routes included, so
		// replicas can tail through the front door.
		{"stats via router", h.ts.URL, "GET", "/v1/graphs/" + g + "/stats", want{status: 200}},
		{"replication status via router", h.ts.URL, "GET", "/v1/replication/" + g + "/status", want{status: 200}},
		{"fleet doc", h.ts.URL, "GET", "/v1/fleet", want{status: 200}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			req, err := http.NewRequest(tc.method, tc.base+tc.path, strings.NewReader("{}"))
			if err != nil {
				t.Fatal(err)
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != tc.want.status {
				t.Fatalf("%s %s: status %d, want %d (body %s)", tc.method, tc.path, resp.StatusCode, tc.want.status, body)
			}
			if tc.want.allow != nil {
				if got := resp.Header.Get("Allow"); got != *tc.want.allow {
					t.Errorf("%s %s: Allow %q, want %q", tc.method, tc.path, got, *tc.want.allow)
				}
			}
			if tc.want.leader {
				if got := resp.Header.Get("X-Previewtables-Leader"); got != h.ts.URL {
					t.Errorf("%s %s: X-Previewtables-Leader %q, want the router %q", tc.method, tc.path, got, h.ts.URL)
				}
			}
		})
	}

	// Re-adding an existing shard id under a DIFFERENT leader is a
	// conflict, not an upsert: shard ids are the ring's hash keys, and
	// silently re-pointing one would re-home its graphs to a node that
	// does not hold them.
	t.Run("shard add duplicate id", func(t *testing.T) {
		resp, err := http.Post(h.ts.URL+"/v1/fleet/shards", "application/json",
			strings.NewReader(`{"id":"alpha","leader":"http://127.0.0.1:1"}`))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusConflict {
			t.Fatalf("duplicate shard add: status %d, want 409", resp.StatusCode)
		}
	})

	// HEAD on every read route: same status and validator as GET, not a
	// byte of body — whether the router answers itself (list, fleet,
	// healthz) or forwards to a shard.
	heads := append(graphReadURLs(g),
		"/v1/graphs",
		"/v1/fleet",
		"/healthz",
		"/v1/replication/"+g+"/status",
	)
	for _, u := range heads {
		t.Run("HEAD "+u, func(t *testing.T) {
			getResp, err := http.Get(h.ts.URL + u)
			if err != nil {
				t.Fatal(err)
			}
			io.Copy(io.Discard, getResp.Body)
			getResp.Body.Close()
			headResp, err := http.Head(h.ts.URL + u)
			if err != nil {
				t.Fatal(err)
			}
			body, _ := io.ReadAll(headResp.Body)
			headResp.Body.Close()
			if headResp.StatusCode != getResp.StatusCode {
				t.Fatalf("HEAD status %d, GET status %d", headResp.StatusCode, getResp.StatusCode)
			}
			if len(body) != 0 {
				t.Errorf("HEAD returned %d body bytes", len(body))
			}
			if ge, he := getResp.Header.Get("ETag"), headResp.Header.Get("ETag"); ge != he {
				t.Errorf("ETag differs: GET %q, HEAD %q", ge, he)
			}
		})
	}
}

// TestRouterMergedListHungShard: the merged list fetches every shard's
// list, each bounded by the probe timeout, so one leader that accepts
// the request and never answers costs a 502 naming it, not a hung list.
func TestRouterMergedListHungShard(t *testing.T) {
	alpha := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		wire.WriteJSON(w, map[string][]string{"graphs": {}})
	}))
	t.Cleanup(alpha.Close)
	release := make(chan struct{})
	beta := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-release:
		case <-r.Context().Done():
		}
	}))
	t.Cleanup(beta.Close)
	t.Cleanup(func() { close(release) }) // runs first: Close waits for the handler

	rt, err := NewRouter([]ShardSpec{{ID: "alpha", Leader: alpha.URL}, {ID: "beta", Leader: beta.URL}},
		RouterOptions{ProbeTimeout: 200 * time.Millisecond, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(rt)
	t.Cleanup(ts.Close)

	start := time.Now()
	client := &http.Client{Timeout: 10 * time.Second} // a router without the bound would hang here
	resp, err := client.Get(ts.URL + "/v1/graphs")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	elapsed := time.Since(start)
	if resp.StatusCode != http.StatusBadGateway {
		t.Fatalf("merged list with a hung shard: status %d, want 502 (body %s)", resp.StatusCode, raw)
	}
	if elapsed > 2*time.Second {
		t.Errorf("merged list took %v, want the 200ms probe bound to cut the hung shard off", elapsed)
	}
	var doc struct {
		Error string `json:"error"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil || !strings.Contains(doc.Error, `"beta"`) {
		t.Errorf("error body %s, want an error naming shard \"beta\"", raw)
	}
}

// TestRouterEscapesGraphNames: the router's control calls put graph
// names into URL paths escaped, so a name holding a query, fragment or
// escape character still addresses its own graph. Unescaped, "x?y" and
// "x#y" would ask the node about graph "x" (a 404, which replStatus
// reads as "not hosted": a migration's drain and a failover's catch-up
// would then pass the graph by), and "100%" would not parse as a URL.
func TestRouterEscapesGraphNames(t *testing.T) {
	names := []string{"x?y", "a b", "100%", "x#y"}
	lp := startLeaderProc(t, "alpha", names, t.TempDir())
	rt, err := NewRouter([]ShardSpec{{ID: "alpha", Leader: lp.ts.URL}}, RouterOptions{Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range names {
		if _, found, err := rt.replStatus(lp.ts.URL, name); err != nil || !found {
			t.Errorf("replStatus(%q) on its leader: found %v, err %v; want found", name, found, err)
		}
	}
}
