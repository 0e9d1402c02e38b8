package service

import (
	"encoding/json"
	"net/http"

	"repro/internal/checkpoint"
)

// Streaming job progress: GET /v1/jobs/{id}/events serves the job's
// per-point sweep journal as an incremental NDJSON event stream. The
// stream reads the durable journal file — not any in-memory state — so
// it replays from the first point on every (re)connect and therefore
// survives coordinator restarts: the journal is fsynced per point and
// resumed across process lives, which makes it the natural event log.
//
// The stream is push-driven, not polled: it re-reads the journal only
// when the job changes — a point is committed (locally or ingested from
// a distributed worker), the job changes state, or retention forgets it
// (Manager.Watch). A job that makes no progress costs its streams
// nothing.
//
// Events are emitted in point order. Points complete out of order (a
// parallel or distributed sweep finishes whatever lands first), so the
// stream holds back gaps: point k is emitted only once points 0..k-1
// have been. The final event reports the job's terminal state.

// JobEvent is one NDJSON line of the event stream.
type JobEvent struct {
	// Type is "point" (one journaled sweep point) or "state" (the
	// job's terminal state; always the last event).
	Type string `json:"type"`
	// Sweep and Point locate a point event in the job's sweep plan.
	Sweep string `json:"sweep,omitempty"`
	Point int    `json:"point,omitempty"`
	// Seed is the sweep seed the point was recorded under.
	Seed uint64 `json:"seed,omitempty"`
	// Done and Total track cumulative progress at emission time.
	Done  int `json:"done,omitempty"`
	Total int `json:"total,omitempty"`
	// State and Reason carry the terminal state event.
	State  State  `json:"state,omitempty"`
	Reason string `json:"reason,omitempty"`
}

// events is GET /v1/jobs/{id}/events.
func (s *Server) events(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	spec, fp, ok := s.m.JobInfo(id)
	if !ok {
		writeError(w, http.StatusNotFound, "not-found", ErrNotFound.Error(), 0)
		return
	}

	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("Cache-Control", "no-store")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	emit := func(e JobEvent) bool {
		if err := enc.Encode(e); err != nil {
			return false
		}
		if flusher != nil {
			flusher.Flush()
		}
		return true
	}

	// A job recovered from a terminal log record has no spec anymore;
	// there is no plan to stream, only the outcome.
	plan, perr := spec.Plan()
	if perr != nil {
		st, _ := s.m.Status(id)
		emit(JobEvent{Type: "state", State: st.State, Reason: st.Reason})
		return
	}

	next := 0 // next point index to emit (gap-holding cursor)
	path := s.m.JournalPath(fp)
	for {
		// Take the status and the change channel before reading the
		// journal: a commit that lands after the read has then already
		// closed the channel, so the wait below cannot miss it.
		st, changed, ok := s.m.Watch(id)
		if !ok {
			emit(JobEvent{Type: "state", State: StateEvicted, Reason: "job no longer tracked"})
			return
		}
		// Decode the journal tolerantly; a missing file (job not yet
		// started, or finished and cleaned up) is an empty set, not an
		// error — the terminal state below settles the stream.
		present := map[int]uint64{}
		if data, err := s.m.fs.ReadFile(path); err == nil {
			if _, records, _, derr := checkpoint.DecodeJournal(data); derr == nil {
				for _, rec := range records {
					if rec.Sweep == plan.Sweep && rec.Seed == spec.Seed {
						present[rec.Point] = rec.Seed
					}
				}
			}
		}
		for next < plan.Points {
			seed, ok := present[next]
			if !ok {
				break
			}
			if !emit(JobEvent{Type: "point", Sweep: plan.Sweep, Point: next, Seed: seed,
				Done: next + 1, Total: plan.Points}) {
				return
			}
			next++
		}
		switch st.State {
		case StateDone:
			// A done job completed every point by construction (the
			// artifact is rendered only from a full journal), but the
			// journal itself may already be cleaned up — flush the events
			// the cursor has not reached rather than losing them to the
			// teardown race.
			for ; next < plan.Points; next++ {
				if !emit(JobEvent{Type: "point", Sweep: plan.Sweep, Point: next, Seed: spec.Seed,
					Done: next + 1, Total: plan.Points}) {
					return
				}
			}
			emit(JobEvent{Type: "state", State: st.State, Reason: st.Reason,
				Done: next, Total: plan.Points})
			return
		case StateFailed, StateEvicted:
			emit(JobEvent{Type: "state", State: st.State, Reason: st.Reason,
				Done: next, Total: plan.Points})
			return
		}
		select {
		case <-r.Context().Done():
			return
		case <-changed:
		}
	}
}
