package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// newTestServer runs a manager behind httptest.
func newTestServer(t *testing.T, cfg Config) (*Manager, *httptest.Server) {
	t.Helper()
	m, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewServer(m, 0).Handler())
	t.Cleanup(func() {
		srv.Close()
		m.Close()
	})
	return m, srv
}

// postJob submits a JSON body and decodes the response envelope.
func postJob(t *testing.T, srv *httptest.Server, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(srv.URL+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

func get(t *testing.T, url string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

// TestServerSubmitPollFetch is the quickstart flow: POST a job, poll
// its status, fetch the artifact, and get byte-identical CSV to a
// direct run.
func TestServerSubmitPollFetch(t *testing.T) {
	_, srv := newTestServer(t, testConfig(t))

	resp, body := postJob(t, srv, `{"kind":"measure","tenant":"alice","n":60,"r":2,"events":300,"seed":7}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d %s", resp.StatusCode, body)
	}
	var st JobStatus
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatalf("submit response: %v (%s)", err, body)
	}

	deadline := time.Now().Add(60 * time.Second)
	for {
		resp, body = get(t, srv.URL+"/v1/jobs/"+st.ID)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status: %d %s", resp.StatusCode, body)
		}
		if err := json.Unmarshal(body, &st); err != nil {
			t.Fatal(err)
		}
		if st.State == StateDone || st.State == StateFailed {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job stuck in %s", st.State)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if st.State != StateDone {
		t.Fatalf("job ended %s: %s", st.State, st.Reason)
	}

	resp, data := get(t, srv.URL+"/v1/jobs/"+st.ID+"/result")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("result: %d %s", resp.StatusCode, data)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/csv" {
		t.Fatalf("result content type %q", ct)
	}
	ref := reference(t, testMeasureSpec("alice", 7))
	if !bytes.Equal(data, ref) {
		t.Fatalf("served artifact differs from direct run:\n got %q\nwant %q", data, ref)
	}

	// Stats are live and JSON-shaped.
	resp, body = get(t, srv.URL+"/v1/stats")
	var stats Stats
	if resp.StatusCode != http.StatusOK || json.Unmarshal(body, &stats) != nil {
		t.Fatalf("stats: %d %s", resp.StatusCode, body)
	}
	if stats.Accepted < 1 || stats.Done < 1 {
		t.Fatalf("stats did not count the job: %+v", stats)
	}
}

func TestServerRejectsBadSpecs(t *testing.T) {
	_, srv := newTestServer(t, testConfig(t))
	for _, body := range []string{
		`{"kind":"measure"`,
		`{"kind":"warp"}`,
		`{"kind":"measure","bogus":1}`,
		`{"kind":"figure","fig":4}`,
		`{"kind":"measure","events":1e999}`,
		`{` + strings.Repeat(`"x":1,`, 4096) + `}`, // oversized
	} {
		resp, data := postJob(t, srv, body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("body %.40q: got %d %s, want 400", body, resp.StatusCode, data)
		}
		var eb errorBody
		if err := json.Unmarshal(data, &eb); err != nil || eb.Error == "" {
			t.Fatalf("error envelope missing: %s", data)
		}
	}
}

func TestServerThrottleAndShedStatusCodes(t *testing.T) {
	cfg := testConfig(t)
	cfg.Admission = AdmissionPolicy{Rate: 0, Burst: 1}
	m, err := open(cfg) // no workers: jobs queue, nothing runs
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewServer(m, 0).Handler())
	t.Cleanup(func() { srv.Close(); m.Close() })

	if resp, data := postJob(t, srv, `{"kind":"measure","tenant":"alice"}`); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("first submit: %d %s", resp.StatusCode, data)
	}
	resp, data := postJob(t, srv, `{"kind":"measure","tenant":"alice","seed":2}`)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("throttled submit: got %d %s, want 429", resp.StatusCode, data)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	var eb errorBody
	if err := json.Unmarshal(data, &eb); err != nil || eb.Reason != "throttled" || eb.RetryAfterMS <= 0 {
		t.Fatalf("throttle envelope: %s", data)
	}

	// A different tenant hits the queue bound instead: 503.
	cfg2 := testConfig(t)
	cfg2.QueueDepth = 1
	m2, err := open(cfg2)
	if err != nil {
		t.Fatal(err)
	}
	srv2 := httptest.NewServer(NewServer(m2, 0).Handler())
	t.Cleanup(func() { srv2.Close(); m2.Close() })
	postJob(t, srv2, `{"kind":"measure","tenant":"a"}`)
	resp, data = postJob(t, srv2, `{"kind":"measure","tenant":"b","seed":2}`)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("shed submit: got %d %s, want 503", resp.StatusCode, data)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("503 without Retry-After")
	}
}

func TestServerNotFoundAndNotDone(t *testing.T) {
	cfg := testConfig(t)
	m, err := open(cfg) // no workers: submitted jobs stay queued
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewServer(m, 0).Handler())
	t.Cleanup(func() { srv.Close(); m.Close() })

	if resp, _ := get(t, srv.URL+"/v1/jobs/nope"); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown job status: %d", resp.StatusCode)
	}
	if resp, _ := get(t, srv.URL+"/v1/jobs/nope/result"); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown job result: %d", resp.StatusCode)
	}

	_, body := postJob(t, srv, `{"kind":"measure"}`)
	var st JobStatus
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	resp, data := get(t, srv.URL+"/v1/jobs/"+st.ID+"/result")
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("queued job result: got %d %s, want 409", resp.StatusCode, data)
	}
	var eb errorBody
	if err := json.Unmarshal(data, &eb); err != nil || eb.Reason != string(StateQueued) {
		t.Fatalf("conflict envelope: %s", data)
	}
}

func TestServerHealthAndReadiness(t *testing.T) {
	m, srv := newTestServer(t, testConfig(t))

	if resp, _ := get(t, srv.URL+"/healthz"); resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %d", resp.StatusCode)
	}
	if resp, _ := get(t, srv.URL+"/readyz"); resp.StatusCode != http.StatusOK {
		t.Fatalf("readyz: %d", resp.StatusCode)
	}

	m.Drain(context.Background())

	// Liveness stays green through a drain; readiness flips.
	if resp, _ := get(t, srv.URL+"/healthz"); resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz during drain: %d", resp.StatusCode)
	}
	if resp, _ := get(t, srv.URL+"/readyz"); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("readyz during drain: %d", resp.StatusCode)
	}
	resp, data := postJob(t, srv, `{"kind":"measure"}`)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("submit during drain: %d %s", resp.StatusCode, data)
	}
}

func TestServerMethodRouting(t *testing.T) {
	_, srv := newTestServer(t, testConfig(t))
	resp, err := http.Get(srv.URL + "/v1/jobs")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed && resp.StatusCode != http.StatusNotFound {
		t.Fatalf("GET on POST route: %d", resp.StatusCode)
	}
	req, _ := http.NewRequest(http.MethodDelete, fmt.Sprintf("%s/v1/jobs/abc", srv.URL), nil)
	resp2, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("DELETE on GET route: %d", resp2.StatusCode)
	}
}

// TestRetryAfterRoundsUp pins the Retry-After header shared by error
// responses and empty lease claims: whole seconds, rounded up, and
// absent for a non-positive hint.
func TestRetryAfterRoundsUp(t *testing.T) {
	for _, c := range []struct {
		d    time.Duration
		want string
	}{
		{0, ""},
		{-time.Second, ""},
		{time.Nanosecond, "1"},
		{time.Second, "1"},
		{1500 * time.Millisecond, "2"},
		{30 * time.Second, "30"},
	} {
		w := httptest.NewRecorder()
		setRetryAfter(w, c.d)
		if got := w.Header().Get("Retry-After"); got != c.want {
			t.Errorf("Retry-After for %v = %q, want %q", c.d, got, c.want)
		}
	}
}
