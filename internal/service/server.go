package service

import (
	"encoding/json"
	"errors"
	"net/http"
	"strconv"
	"time"
)

// errorBody is the JSON envelope of every non-2xx response.
type errorBody struct {
	Error        string `json:"error"`
	Reason       string `json:"reason,omitempty"`
	RetryAfterMS int64  `json:"retry_after_ms,omitempty"`
}

// Server is the HTTP face of a Manager.
type Server struct {
	m            *Manager
	maxSpecBytes int64
}

// NewServer wires a Manager into an http.Handler; maxSpecBytes <= 0
// selects DefaultMaxSpecBytes.
func NewServer(m *Manager, maxSpecBytes int64) *Server {
	if maxSpecBytes <= 0 {
		maxSpecBytes = DefaultMaxSpecBytes
	}
	return &Server{m: m, maxSpecBytes: maxSpecBytes}
}

// Handler builds the route table.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", s.submit)
	mux.HandleFunc("GET /v1/jobs/{id}", s.status)
	mux.HandleFunc("GET /v1/jobs/{id}/result", s.result)
	mux.HandleFunc("GET /v1/jobs/{id}/events", s.events)
	mux.HandleFunc("POST /v1/leases/claim", s.leaseClaim)
	mux.HandleFunc("POST /v1/leases/{id}/heartbeat", s.leaseHeartbeat)
	mux.HandleFunc("POST /v1/leases/{id}/results", s.leaseResult)
	mux.HandleFunc("POST /v1/leases/{id}/done", s.leaseDone)
	mux.HandleFunc("GET /v1/stats", s.stats)
	mux.HandleFunc("GET /healthz", s.healthz)
	mux.HandleFunc("GET /readyz", s.readyz)
	return mux
}

// writeJSON renders one JSON response.
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	_ = enc.Encode(v)
}

// setRetryAfter sets the Retry-After header when the hint is positive.
// The header is whole seconds; round up so clients never retry before
// the hint.
func setRetryAfter(w http.ResponseWriter, d time.Duration) {
	if d > 0 {
		secs := int64((d + time.Second - 1) / time.Second)
		w.Header().Set("Retry-After", strconv.FormatInt(secs, 10))
	}
}

// writeError renders the error envelope.
func writeError(w http.ResponseWriter, code int, reason, msg string, retryAfter time.Duration) {
	setRetryAfter(w, retryAfter)
	writeJSON(w, code, errorBody{Error: msg, Reason: reason, RetryAfterMS: retryAfter.Milliseconds()})
}

// submit is POST /v1/jobs: decode strictly, admit, queue (or serve from
// cache), answer 202 with the job snapshot — or 200 when the cache made
// the job instantly done.
func (s *Server) submit(w http.ResponseWriter, r *http.Request) {
	// MaxBytesReader hard-stops oversized bodies at the transport level;
	// DecodeJobSpec enforces the same bound for any other reader.
	r.Body = http.MaxBytesReader(w, r.Body, s.maxSpecBytes)
	spec, err := DecodeJobSpec(r.Body, s.maxSpecBytes)
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad-spec", err.Error(), 0)
		return
	}
	st, err := s.m.Submit(spec)
	if err != nil {
		var un *Unavailable
		if errors.As(err, &un) {
			code := http.StatusServiceUnavailable
			if un.Throttled() {
				code = http.StatusTooManyRequests
			}
			writeError(w, code, un.Reason, un.Error(), un.RetryAfter)
			return
		}
		writeError(w, http.StatusInternalServerError, "internal", err.Error(), 0)
		return
	}
	code := http.StatusAccepted
	if st.State == StateDone {
		code = http.StatusOK
	}
	writeJSON(w, code, st)
}

// status is GET /v1/jobs/{id}.
func (s *Server) status(w http.ResponseWriter, r *http.Request) {
	st, ok := s.m.Status(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "not-found", ErrNotFound.Error(), 0)
		return
	}
	writeJSON(w, http.StatusOK, st)
}

// result is GET /v1/jobs/{id}/result: the artifact CSV of a done job.
func (s *Server) result(w http.ResponseWriter, r *http.Request) {
	data, err := s.m.Result(r.PathValue("id"))
	if err != nil {
		var nd *NotDoneError
		switch {
		case errors.Is(err, ErrNotFound):
			writeError(w, http.StatusNotFound, "not-found", err.Error(), 0)
		case errors.As(err, &nd):
			// 409: the job exists but is not in a result-bearing state.
			writeError(w, http.StatusConflict, string(nd.State), err.Error(), 0)
		default:
			writeError(w, http.StatusInternalServerError, "internal", err.Error(), 0)
		}
		return
	}
	w.Header().Set("Content-Type", "text/csv")
	w.Header().Set("Content-Length", strconv.Itoa(len(data)))
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(data)
}

// leaseClaim is POST /v1/leases/claim: a worker asks for a shard. 200
// carries a lease; 204 means no work right now (Retry-After hints when
// to ask again); 503 while draining.
func (s *Server) leaseClaim(w http.ResponseWriter, r *http.Request) {
	r.Body = http.MaxBytesReader(w, r.Body, DefaultMaxWireBytes)
	req, err := DecodeClaim(r.Body, DefaultMaxWireBytes)
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad-claim", err.Error(), 0)
		return
	}
	lease, retry, err := s.m.ClaimLease(req.Worker)
	if err != nil {
		var un *Unavailable
		if errors.As(err, &un) {
			writeError(w, http.StatusServiceUnavailable, un.Reason, un.Error(), un.RetryAfter)
			return
		}
		writeError(w, http.StatusInternalServerError, "internal", err.Error(), 0)
		return
	}
	if lease == nil {
		setRetryAfter(w, retry)
		w.WriteHeader(http.StatusNoContent)
		return
	}
	writeJSON(w, http.StatusOK, lease)
}

// leaseHeartbeat is POST /v1/leases/{id}/heartbeat. 410 Gone tells the
// worker its lease was expired or revoked: abandon the shard (streamed
// points are already safe).
func (s *Server) leaseHeartbeat(w http.ResponseWriter, r *http.Request) {
	r.Body = http.MaxBytesReader(w, r.Body, DefaultMaxWireBytes)
	req, err := DecodeHeartbeat(r.Body, DefaultMaxWireBytes)
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad-heartbeat", err.Error(), 0)
		return
	}
	if err := s.m.LeaseHeartbeat(r.PathValue("id"), req.Worker); err != nil {
		writeError(w, http.StatusGone, "lease-gone", err.Error(), 0)
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// leaseResult is POST /v1/leases/{id}/results: one streamed point.
// Routing is by the record's fingerprint, so a result outlives its
// lease; 410 means no coordinating job wants the fingerprint at all.
func (s *Server) leaseResult(w http.ResponseWriter, r *http.Request) {
	r.Body = http.MaxBytesReader(w, r.Body, DefaultMaxWireBytes)
	req, err := DecodeResult(r.Body, DefaultMaxWireBytes)
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad-result", err.Error(), 0)
		return
	}
	added, err := s.m.LeaseResult(req)
	switch {
	case errors.Is(err, ErrLeaseGone):
		writeError(w, http.StatusGone, "lease-gone", err.Error(), 0)
	case errors.Is(err, ErrStorage):
		// The record was valid; the coordinator's own storage failed to
		// persist it. 503 + Retry-After: the worker should re-send once
		// a healthy coordinator is back, not discard its work.
		writeError(w, http.StatusServiceUnavailable, "degraded", err.Error(), s.m.RetryBase())
	case err != nil:
		writeError(w, http.StatusBadRequest, "bad-result", err.Error(), 0)
	default:
		writeJSON(w, http.StatusOK, map[string]bool{"merged": added})
	}
}

// leaseDone is POST /v1/leases/{id}/done: the worker's end-of-lease
// report (failed points, if any).
func (s *Server) leaseDone(w http.ResponseWriter, r *http.Request) {
	r.Body = http.MaxBytesReader(w, r.Body, DefaultMaxWireBytes)
	req, err := DecodeDone(r.Body, DefaultMaxWireBytes)
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad-done", err.Error(), 0)
		return
	}
	if err := s.m.LeaseDone(r.PathValue("id"), req); err != nil {
		writeError(w, http.StatusGone, "lease-gone", err.Error(), 0)
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// stats is GET /v1/stats.
func (s *Server) stats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.m.StatsSnapshot())
}

// healthz reports liveness: the process is up and serving HTTP. It
// stays 200 through overload and drain — a loaded daemon is not a dead
// daemon.
func (s *Server) healthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// readyz reports readiness: whether new jobs are being admitted. It
// flips to 503 the moment a drain begins — or the moment a storage
// failure degrades the daemon to read-only — so load balancers stop
// routing submissions while in-flight jobs finish.
func (s *Server) readyz(w http.ResponseWriter, r *http.Request) {
	if ok, reason := s.m.ReadyState(); !ok {
		writeError(w, http.StatusServiceUnavailable, reason,
			"service: not admitting jobs ("+reason+")", 0)
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ready"})
}
