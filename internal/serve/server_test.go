package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"
)

func testServer(t *testing.T, opts Options) (*Server, *httptest.Server) {
	t.Helper()
	srv, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	srv.Start()
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		srv.Stop()
	})
	return srv, ts
}

func TestCommandEndpointCodes(t *testing.T) {
	_, ts := testServer(t, Options{Shards: 1, Config: ShardConfig{M: 1}})
	url := ts.URL + "/v1/shards/0/commands"

	code, body := postJSON(t, url, CommandRequest{Op: "join", Task: "A", Weight: "1/2"})
	if code != http.StatusOK || !strings.Contains(string(body), `"queued"`) {
		t.Fatalf("join: %d: %s", code, body)
	}
	// Property (W): headroom is 1/2, a 1/2 join fits exactly...
	code, body = postJSON(t, url, CommandRequest{Op: "join", Task: "B", Weight: "1/2"})
	if code != http.StatusOK {
		t.Fatalf("exact-fit join: %d: %s", code, body)
	}
	// ...and the next one is rejected with zero headroom attached.
	code, body = postJSON(t, url, CommandRequest{Op: "join", Task: "C", Weight: "1/4"})
	if code != http.StatusConflict {
		t.Fatalf("over-capacity join: %d: %s", code, body)
	}
	var res CommandResult
	if err := json.Unmarshal(body, &res); err != nil {
		t.Fatal(err)
	}
	if res.Error != errWeight || res.Headroom != "0" {
		t.Fatalf("weight rejection: %+v", res)
	}
	// Duplicate name.
	if code, _ = postJSON(t, url, CommandRequest{Op: "join", Task: "A", Weight: "1/8"}); code != http.StatusConflict {
		t.Fatalf("duplicate join: %d", code)
	}
	// Unknown task.
	if code, _ = postJSON(t, url, CommandRequest{Op: "reweight", Task: "zz", Weight: "1/8"}); code != http.StatusNotFound {
		t.Fatalf("unknown reweight: %d", code)
	}
	// Malformed: bad op, heavy weight, missing weight, bad rational.
	for _, bad := range []CommandRequest{
		{Op: "detach", Task: "A"},
		{Op: "join", Task: "H", Weight: "3/4"},
		{Op: "join", Task: "H"},
		{Op: "join", Task: "H", Weight: "x/y"},
		{Op: "join", Weight: "1/8"},
	} {
		if code, body = postJSON(t, url, bad); code != http.StatusBadRequest {
			t.Fatalf("bad request %+v: %d: %s", bad, code, body)
		}
	}
	// Unknown shard.
	if code, _ = postJSON(t, ts.URL+"/v1/shards/9/commands", CommandRequest{Op: "leave", Task: "A"}); code != http.StatusNotFound {
		t.Fatalf("unknown shard: %d", code)
	}
	// Wrong method.
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET on commands: %d", resp.StatusCode)
	}
}

// TestMinInt64Weights: a weight with a math.MinInt64 part is reduced
// exactly or refused with 400, never a handler panic.
func TestMinInt64Weights(t *testing.T) {
	_, ts := testServer(t, Options{Shards: 1, Config: ShardConfig{M: 1}})
	url := ts.URL + "/v1/shards/0/commands"
	code, body := postJSON(t, url, CommandRequest{Op: "join", Task: "A", Weight: "-9223372036854775808/3"})
	var res ErrorResponse
	if err := json.Unmarshal(body, &res); code != http.StatusBadRequest || err != nil || res.Error != errInvalid {
		t.Fatalf("join at -2^63/3: %d: %s", code, body)
	}
	code, body = postJSON(t, url, CommandRequest{Op: "join", Task: "B", Weight: "-4611686018427387904/-9223372036854775808"})
	if code != http.StatusOK || !strings.Contains(string(body), `"queued"`) {
		t.Fatalf("join at -2^62/-2^63 (1/2): %d: %s", code, body)
	}
}

func TestBatchEndpoint(t *testing.T) {
	_, ts := testServer(t, Options{Shards: 1, Config: ShardConfig{M: 2}})
	url := ts.URL + "/v1/shards/0/commands"
	code, body := postJSON(t, url, []CommandRequest{
		{Op: "join", Task: "A", Weight: "1/4"},
		{Op: "join", Task: "A", Weight: "1/4"}, // dup inside the same batch
		{Op: "join", Task: "B", Weight: "1/4"},
	})
	if code != http.StatusOK {
		t.Fatalf("batch: %d: %s", code, body)
	}
	var results []CommandResult
	if err := json.Unmarshal(body, &results); err != nil {
		t.Fatal(err)
	}
	if len(results) != 3 {
		t.Fatalf("got %d results", len(results))
	}
	if results[0].Status != "queued" || results[1].Status != "rejected" || results[2].Status != "queued" {
		t.Fatalf("batch results: %+v", results)
	}
	// A batch with a malformed entry is rejected whole, before admission.
	code, _ = postJSON(t, url, []CommandRequest{
		{Op: "join", Task: "C", Weight: "1/4"},
		{Op: "frobnicate", Task: "C"},
	})
	if code != http.StatusBadRequest {
		t.Fatalf("malformed batch: %d", code)
	}
	// C must not have been admitted by the rejected batch.
	code, _ = postJSON(t, url, CommandRequest{Op: "join", Task: "C", Weight: "1/4"})
	if code != http.StatusOK {
		t.Fatalf("C was admitted by a rejected batch: %d", code)
	}
}

func TestBackpressure429(t *testing.T) {
	srv, err := New(Options{Shards: 1, Config: ShardConfig{M: 1}, MailboxCap: 2, RetryAfterSeconds: 3})
	if err != nil {
		t.Fatal(err)
	}
	// Shards deliberately not started: fill the mailbox by hand.
	sh := srv.shardAt(0)
	for i := 0; i < 2; i++ {
		p := sh.pool.newPending()
		p.kind = pendQuery
		if !sh.submit(p) {
			t.Fatalf("fill submit %d failed", i)
		}
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	data := strings.NewReader(`{"op":"join","task":"A","weight":"1/4"}`)
	resp, err := http.Post(ts.URL+"/v1/shards/0/commands", "application/json", data)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("full mailbox: %d: %s", resp.StatusCode, body)
	}
	if got := resp.Header.Get("Retry-After"); got != "3" {
		t.Fatalf("Retry-After = %q, want 3", got)
	}
	if !strings.Contains(string(body), errFull) {
		t.Fatalf("429 body: %s", body)
	}
	if sh.reqs.backpressured.Load() != 1 {
		t.Fatalf("backpressured counter = %d", sh.reqs.backpressured.Load())
	}
	// The counter counts refused requests, not commands: a 3-command
	// batch and a status read with per-task rows add one each. (A plain
	// status read copies the shard's view and is never refused.)
	batch := strings.NewReader(`[{"op":"join","task":"B","weight":"1/8"},{"op":"join","task":"C","weight":"1/8"},{"op":"join","task":"D","weight":"1/8"}]`)
	resp, err = http.Post(ts.URL+"/v1/shards/0/commands", "application/json", batch)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("full mailbox, batch: %d", resp.StatusCode)
	}
	resp, err = http.Get(ts.URL + "/v1/shards/0?tasks=1")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("full mailbox, status read with tasks: %d", resp.StatusCode)
	}
	if got := sh.reqs.backpressured.Load(); got != 3 {
		t.Fatalf("backpressured counter = %d after three refused requests, want 3", got)
	}
}

func TestStoppedServerAnswers503(t *testing.T) {
	srv, err := New(Options{Shards: 1, Config: ShardConfig{M: 1}})
	if err != nil {
		t.Fatal(err)
	}
	srv.Start()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	srv.Stop()
	code, body := postJSON(t, ts.URL+"/v1/shards/0/commands", CommandRequest{Op: "join", Task: "A", Weight: "1/4"})
	if code != http.StatusServiceUnavailable || !strings.Contains(string(body), errDraining) {
		t.Fatalf("post after stop: %d: %s", code, body)
	}
	// A plain status read never enters the mailbox, and still drains.
	resp, err := http.Get(ts.URL + "/v1/shards/0")
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || !strings.Contains(string(body), errDraining) {
		t.Fatalf("status read after stop: %d: %s", resp.StatusCode, body)
	}
}

func TestAdvanceQueryMetricsEndpoints(t *testing.T) {
	_, ts := testServer(t, Options{Shards: 2, Config: ShardConfig{M: 2}})
	if code, body := postJSON(t, ts.URL+"/v1/shards/1/commands", CommandRequest{Op: "join", Task: "A", Weight: "1/4"}); code != http.StatusOK {
		t.Fatalf("join: %d: %s", code, body)
	}
	var adv AdvanceResponse
	code, body := postJSON(t, ts.URL+"/v1/shards/1/advance", AdvanceRequest{Slots: 5})
	if code != http.StatusOK {
		t.Fatalf("advance: %d: %s", code, body)
	}
	if err := json.Unmarshal(body, &adv); err != nil {
		t.Fatal(err)
	}
	if adv.Now != 5 {
		t.Fatalf("now = %d, want 5", adv.Now)
	}
	var st ShardStatus
	getJSON(t, ts.URL+"/v1/shards/1?tasks=1", &st)
	if st.Now != 5 || st.ActiveTasks != 1 || len(st.Tasks) != 1 {
		t.Fatalf("status: %+v", st)
	}
	if st.Tasks[0].Name != "A" || !st.Tasks[0].Active {
		t.Fatalf("task row: %+v", st.Tasks[0])
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metrics, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{
		`pd2d_commands_accepted_total{shard="1"} 1`,
		`pd2d_slots_advanced_total{shard="1"} 5`,
		`pd2d_shard_now{shard="1"} 5`,
		`pd2d_shard_active_tasks{shard="1"} 1`,
		`pd2d_commands_accepted_total{shard="0"} 0`,
	} {
		if !strings.Contains(string(metrics), want) {
			t.Errorf("/metrics missing %q:\n%s", want, metrics)
		}
	}

	for _, path := range []string{"/healthz", "/debug/pprof/", "/v1/shards"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("GET %s: %d", path, resp.StatusCode)
		}
	}
	// The shard list is each shard's index, policy and M, not its status.
	var list []map[string]any
	getJSON(t, ts.URL+"/v1/shards", &list)
	if len(list) != 2 {
		t.Fatalf("GET /v1/shards: %d entries, want 2", len(list))
	}
	for i, e := range list {
		want := map[string]any{"shard": float64(i), "policy": "oi", "m": float64(2)}
		if !reflect.DeepEqual(e, want) {
			t.Errorf("GET /v1/shards entry %d = %v, want %v", i, e, want)
		}
	}
}

// TestBodyTooLarge413: a body over the endpoint's MaxBytesReader limit
// must come back as 413 with the errTooLarge wire kind, not a generic
// decode failure.
func TestBodyTooLarge413(t *testing.T) {
	_, ts := testServer(t, Options{Shards: 1, Config: ShardConfig{M: 1}})
	cases := []struct {
		name, path string
		size       int
	}{
		{"commands", "/v1/shards/0/commands", 1<<20 + 1},
		{"advance", "/v1/shards/0/advance", 1<<16 + 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			body := strings.NewReader(`{"x":"` + strings.Repeat("a", tc.size) + `"}`)
			resp, err := http.Post(ts.URL+tc.path, "application/json", body)
			if err != nil {
				t.Fatal(err)
			}
			data, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusRequestEntityTooLarge {
				t.Fatalf("oversized body: %d: %s", resp.StatusCode, data)
			}
			var res ErrorResponse
			if err := json.Unmarshal(data, &res); err != nil {
				t.Fatalf("413 body not an ErrorResponse: %v: %s", err, data)
			}
			if res.Error != errTooLarge || !strings.Contains(res.Reason, "byte limit") {
				t.Fatalf("413 payload: %+v", res)
			}
		})
	}
	// One byte under the limit is decoded normally (400 here: unknown
	// field body is fine, but "x" isn't a command, so op is missing).
	body := strings.NewReader(`{"x":"` + strings.Repeat("a", 1<<16) + `"}`)
	resp, err := http.Post(ts.URL+"/v1/shards/0/commands", "application/json", body)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("in-limit body: %d, want 400", resp.StatusCode)
	}
}

// TestStatusContract pins the asymmetry between the two POST shapes: a
// single command propagates its result code as the HTTP status, while a
// batch always answers 200 and carries per-command codes in the body.
func TestStatusContract(t *testing.T) {
	cases := []struct {
		name       string
		setup      []CommandRequest // admitted first, must all queue
		cmd        CommandRequest
		singleCode int // HTTP status for the single-POST shape
		resCode    int // CommandResult.Code inside a batch (0 = queued)
	}{
		{
			name:       "queued join",
			cmd:        CommandRequest{Op: "join", Task: "A", Weight: "1/4"},
			singleCode: http.StatusOK,
			resCode:    0,
		},
		{
			name:       "duplicate join",
			setup:      []CommandRequest{{Op: "join", Task: "A", Weight: "1/4"}},
			cmd:        CommandRequest{Op: "join", Task: "A", Weight: "1/4"},
			singleCode: http.StatusConflict,
			resCode:    http.StatusConflict,
		},
		{
			name:       "property-W rejection",
			setup:      []CommandRequest{{Op: "join", Task: "A", Weight: "1/2"}, {Op: "join", Task: "B", Weight: "1/2"}},
			cmd:        CommandRequest{Op: "join", Task: "C", Weight: "1/4"},
			singleCode: http.StatusConflict,
			resCode:    http.StatusConflict,
		},
		{
			name:       "unknown task reweight",
			cmd:        CommandRequest{Op: "reweight", Task: "ghost", Weight: "1/8"},
			singleCode: http.StatusNotFound,
			resCode:    http.StatusNotFound,
		},
		{
			name:       "unknown task leave",
			cmd:        CommandRequest{Op: "leave", Task: "ghost"},
			singleCode: http.StatusNotFound,
			resCode:    http.StatusNotFound,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for _, shape := range []string{"single", "batch"} {
				_, ts := testServer(t, Options{Shards: 1, Config: ShardConfig{M: 1}})
				url := ts.URL + "/v1/shards/0/commands"
				for _, s := range tc.setup {
					if code, body := postJSON(t, url, s); code != http.StatusOK {
						t.Fatalf("setup %+v: %d: %s", s, code, body)
					}
				}
				if shape == "single" {
					code, body := postJSON(t, url, tc.cmd)
					if code != tc.singleCode {
						t.Fatalf("single POST: %d, want %d: %s", code, tc.singleCode, body)
					}
					continue
				}
				code, body := postJSON(t, url, []CommandRequest{tc.cmd})
				if code != http.StatusOK {
					t.Fatalf("batch POST: %d, want 200: %s", code, body)
				}
				var results []CommandResult
				if err := json.Unmarshal(body, &results); err != nil {
					t.Fatal(err)
				}
				if len(results) != 1 || results[0].Code != tc.resCode {
					t.Fatalf("batch results: %+v, want code %d", results, tc.resCode)
				}
			}
		})
	}
}

func TestTickerAdvancesShard(t *testing.T) {
	srv, ts := testServer(t, Options{Shards: 1, Config: ShardConfig{M: 1}})
	select {
	case srv.ShardTick(0) <- struct{}{}:
	case <-time.After(time.Second):
		t.Fatal("tick channel never accepted")
	}
	deadline := time.Now().Add(2 * time.Second)
	for {
		var st ShardStatus
		getJSON(t, ts.URL+"/v1/shards/0", &st)
		if st.Now >= 1 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("shard clock still at %d after tick", st.Now)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestFreedRecordDropsLargeBuffers: a record that carried a batch at the
// handler's 1 MiB limit goes back to the pool without the buffers it
// grew, so the pool does not pin the largest batch it ever carried.
func TestFreedRecordDropsLargeBuffers(t *testing.T) {
	srv, _ := testServer(t, Options{Shards: 1, Config: ShardConfig{M: 1}})
	var body bytes.Buffer
	body.WriteByte('[')
	for i := 0; body.Len() < 1<<20-64; i++ {
		if i > 0 {
			body.WriteByte(',')
		}
		fmt.Fprintf(&body, `{"op":"leave","task":"unknown-%07d"}`, i)
	}
	body.WriteByte(']')
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/shards/0/commands", &body))
	if rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), `"error":"unknown_task"`) {
		t.Fatalf("1 MiB batch of unknown leaves: %d %.200s", rec.Code, rec.Body.String())
	}
	sh := srv.shardAt(0)
	sh.pool.mu.Lock()
	defer sh.pool.mu.Unlock()
	if len(sh.pool.free) == 0 {
		t.Fatal("no record returned to the pool")
	}
	for _, p := range sh.pool.free {
		if cap(p.body) > maxPooledBytes || cap(p.esc) > maxPooledBytes || cap(p.out) > maxPooledBytes ||
			cap(p.cmds) > maxPooledCmds || cap(p.results) > maxPooledCmds {
			t.Fatalf("pooled record keeps body %d, esc %d, out %d bytes, cmds %d, results %d entries",
				cap(p.body), cap(p.esc), cap(p.out), cap(p.cmds), cap(p.results))
		}
	}
}
