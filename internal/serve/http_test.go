package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func testHTTP(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := mustServer(t, cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		shutdown(t, s)
	})
	return s, ts
}

func postJob(t *testing.T, ts *httptest.Server, body string) (*http.Response, map[string]any) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST /v1/jobs: %v", err)
	}
	defer resp.Body.Close()
	var m map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatalf("decode response: %v", err)
	}
	return resp, m
}

func TestHTTPSubmitAndArtifact(t *testing.T) {
	_, ts := testHTTP(t, testConfig(okRunner))
	resp, m := postJob(t, ts, `{"tenant":"t1","design":"arbiter2"}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("status = %d, want 202", resp.StatusCode)
	}
	id, _ := m["id"].(string)
	if id == "" {
		t.Fatalf("no job id in %v", m)
	}

	wresp, err := http.Get(ts.URL + "/v1/jobs/" + id + "?wait=1")
	if err != nil {
		t.Fatal(err)
	}
	var jv map[string]any
	_ = json.NewDecoder(wresp.Body).Decode(&jv)
	wresp.Body.Close()
	if jv["state"] != "done" {
		t.Fatalf("job = %v, want done", jv)
	}

	aresp, err := http.Get(ts.URL + "/v1/jobs/" + id + "/artifact")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(aresp.Body)
	aresp.Body.Close()
	if string(body) != "canon:arbiter2\n" {
		t.Fatalf("artifact = %q", body)
	}
	if ct := aresp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("artifact content type = %q", ct)
	}
}

func TestHTTPBadRequests(t *testing.T) {
	_, ts := testHTTP(t, testConfig(okRunner))
	if resp, _ := postJob(t, ts, `{not json`); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad JSON status = %d, want 400", resp.StatusCode)
	}
	resp, m := postJob(t, ts, `{"design":"arbiter2"}`)
	if resp.StatusCode != http.StatusBadRequest || m["code"] != "bad_request" {
		t.Fatalf("missing tenant = %d %v, want 400 bad_request", resp.StatusCode, m)
	}
	if resp, _ := http.Get(ts.URL + "/v1/jobs/j999999"); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown job status = %d, want 404", resp.StatusCode)
	}
}

// TestHTTPOverload: at queue capacity the API answers 429 with both the
// Retry-After header and the machine-readable code.
func TestHTTPOverload(t *testing.T) {
	release := make(chan struct{})
	blocking := func(ctx context.Context, spec *JobSpec) (*Artifact, error) {
		select {
		case <-release:
			return &Artifact{Design: spec.Design}, nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	cfg := testConfig(blocking)
	cfg.Workers = 1
	cfg.QueueDepth = 2
	s, ts := testHTTP(t, cfg)
	defer close(release)

	for i := 0; i < 2; i++ {
		if resp, m := postJob(t, ts, fmt.Sprintf(`{"tenant":"t%d","design":"d"}`, i)); resp.StatusCode != http.StatusAccepted {
			t.Fatalf("fill submit %d = %d %v", i, resp.StatusCode, m)
		}
	}
	resp, m := postJob(t, ts, `{"tenant":"t9","design":"d"}`)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overflow status = %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After header")
	}
	if m["code"] != "queue_full" {
		t.Fatalf("code = %v, want queue_full", m["code"])
	}

	// readyz reflects the saturated queue.
	r, _ := http.Get(ts.URL + "/readyz")
	if r.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("readyz at capacity = %d, want 503", r.StatusCode)
	}
	// healthz stays green: the process is alive, just busy.
	h, _ := http.Get(ts.URL + "/healthz")
	if h.StatusCode != http.StatusOK {
		t.Fatalf("healthz at capacity = %d, want 200", h.StatusCode)
	}
	_ = s
}

func TestHTTPTenantErrors(t *testing.T) {
	release := make(chan struct{})
	blocking := func(ctx context.Context, spec *JobSpec) (*Artifact, error) {
		select {
		case <-release:
			return &Artifact{Design: spec.Design}, nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	cfg := testConfig(blocking)
	cfg.Workers = 1
	cfg.TenantMaxActive = 1
	_, ts := testHTTP(t, cfg)
	defer close(release)

	if resp, _ := postJob(t, ts, `{"tenant":"g","design":"d"}`); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("first submit = %d", resp.StatusCode)
	}
	resp, m := postJob(t, ts, `{"tenant":"g","design":"d"}`)
	if resp.StatusCode != http.StatusTooManyRequests || m["code"] != "tenant_queue_full" {
		t.Fatalf("tenant overflow = %d %v, want 429 tenant_queue_full", resp.StatusCode, m)
	}
	// Another tenant is admitted despite g's saturation.
	if resp, _ := postJob(t, ts, `{"tenant":"p","design":"d"}`); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("other tenant = %d, want 202", resp.StatusCode)
	}
}

func TestHTTPDrainRejects(t *testing.T) {
	s := mustServer(t, testConfig(okRunner))
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	resp, m := postJob(t, ts, `{"tenant":"t","design":"d"}`)
	if resp.StatusCode != http.StatusServiceUnavailable || m["code"] != "draining" {
		t.Fatalf("post-drain submit = %d %v, want 503 draining", resp.StatusCode, m)
	}
	r, _ := http.Get(ts.URL + "/readyz")
	if r.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("readyz draining = %d, want 503", r.StatusCode)
	}
}

func TestHTTPStatsAndList(t *testing.T) {
	_, ts := testHTTP(t, testConfig(okRunner))
	_, m := postJob(t, ts, `{"tenant":"t1","design":"arbiter2"}`)
	id := m["id"].(string)
	if _, err := http.Get(ts.URL + "/v1/jobs/" + id + "?wait=1"); err != nil {
		t.Fatal(err)
	}

	lresp, _ := http.Get(ts.URL + "/v1/jobs?tenant=t1")
	var list []map[string]any
	_ = json.NewDecoder(lresp.Body).Decode(&list)
	lresp.Body.Close()
	if len(list) != 1 || list[0]["id"] != id {
		t.Fatalf("list = %v", list)
	}

	sresp, _ := http.Get(ts.URL + "/statsz")
	var st map[string]any
	_ = json.NewDecoder(sresp.Body).Decode(&st)
	sresp.Body.Close()
	if st["submitted"].(float64) != 1 || st["completed"].(float64) != 1 {
		t.Fatalf("statsz = %v", st)
	}

	// Cancel API on a terminal job: 200, state unchanged.
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+id, nil)
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var dv map[string]any
	_ = json.NewDecoder(dresp.Body).Decode(&dv)
	dresp.Body.Close()
	if dv["state"] != "done" {
		t.Fatalf("cancel of done job yielded state %v", dv["state"])
	}
}

// TestStatszReportsWALWriteFailures: a WAL that stops taking writes under a
// running daemon shows on /statsz, not only as a tracer event.
func TestStatszReportsWALWriteFailures(t *testing.T) {
	cfg := testConfig(okRunner)
	cfg.WALPath = filepath.Join(t.TempDir(), "wal.jsonl")
	s := mustServer(t, cfg)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	// The daemon cannot shut down cleanly over a closed log; Kill skips the
	// drain record.
	defer s.Kill()

	if err := s.wal.log.Close(); err != nil {
		t.Fatal(err)
	}
	_, m := postJob(t, ts, `{"tenant":"t1","design":"arbiter2"}`)
	if _, err := http.Get(ts.URL + "/v1/jobs/" + m["id"].(string) + "?wait=1"); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(ts.URL + "/statsz")
	if err != nil {
		t.Fatal(err)
	}
	var st map[string]any
	_ = json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	// submit, start and done all failed to commit.
	if dropped, _ := st["wal_dropped"].(float64); dropped < 3 {
		t.Errorf("wal_dropped = %v, want >= 3", st["wal_dropped"])
	}
	if msg, _ := st["wal_persist_err"].(string); msg == "" {
		t.Errorf("wal_persist_err missing from /statsz: %v", st)
	}
	if st["wal_appends"].(float64) != 0 {
		t.Errorf("wal_appends = %v, want 0: no record committed", st["wal_appends"])
	}
}
