package service

import (
	"context"
	"errors"
	"fmt"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/experiments"
)

// ErrStorage marks a lease-protocol failure caused by the coordinator's
// own storage, not by the worker's request: the result was valid but
// could not be journaled durably. The server maps it to 503 with a
// Retry-After hint — the worker's bytes are good and worth re-sending
// once the coordinator is healthy again.
var ErrStorage = errors.New("service: storage failure while recording result")

// Coordinator side of distributed sweep execution: the Manager's lease
// protocol entry points (claim / heartbeat / result / done, called by
// the HTTP server) and the per-job coordination loop that replaces
// in-process execution when Config.Distributed is set.

// maxWorkers bounds the worker last-seen registry; beyond it an
// arbitrary entry is dropped (the registry is observability, not
// correctness).
const maxWorkers = 1024

// noteWorkerLocked records a worker sighting for /v1/stats and returns
// its row for counter updates.
func (m *Manager) noteWorkerLocked(name string) *WorkerRow {
	row, ok := m.workers[name]
	if !ok {
		if len(m.workers) >= maxWorkers {
			for k := range m.workers {
				delete(m.workers, k)
				break
			}
		}
		row = &WorkerRow{Name: name}
		m.workers[name] = row
	}
	row.LastSeenMS = m.cfg.Clock().UnixMilli()
	return row
}

// releaseLeaseLocked drops a lease from the per-worker held count; it
// is called on done reports, expirations, and coordinator teardown.
func (m *Manager) releaseLeaseLocked(leaseID string) {
	name, ok := m.leaseWorkers[leaseID]
	if !ok {
		return
	}
	delete(m.leaseWorkers, leaseID)
	if row := m.workers[name]; row != nil && row.LeasesHeld > 0 {
		row.LeasesHeld--
	}
}

// runDistributedJob coordinates one job's execution by remote workers:
// it shards the job's sweep plan into a lease table, lets workers claim
// and compute shards (results arrive through LeaseResult and are merged
// into the job's journal), expires dead and straggling leases on a
// watchdog tick, and — once every point is journaled — renders the
// artifact by pure journal replay, which is what makes the merged bytes
// identical to a single-process run.
func (m *Manager) runDistributedJob(j *job) {
	deadline := j.spec.Deadline(m.cfg.DefaultDeadline, m.cfg.MaxDeadline)
	ctx, cancel := context.WithTimeout(m.rootCtx, deadline)
	defer cancel()

	plan, err := j.spec.Plan()
	if err != nil {
		m.finish(j, StateFailed, err.Error(), checkpoint.JobFailed)
		return
	}
	jr, err := checkpoint.OpenFS(m.fs, m.journalPath(j.fingerprint), j.fingerprint)
	if err != nil {
		m.finish(j, StateFailed, fmt.Sprintf("opening journal: %v", err), checkpoint.JobFailed)
		return
	}
	// Resume: points already journaled (a previous life of this job, or
	// of an identical one) are not re-dispatched.
	var pending []int
	for p := 0; p < plan.Points; p++ {
		if !jr.Has(plan.Sweep, p, j.spec.Seed) {
			pending = append(pending, p)
		}
	}

	m.mu.Lock()
	d := &distJob{
		job: j, journal: jr, sweep: plan.Sweep, seed: j.spec.Seed, total: plan.Points,
		table: NewLeaseTable(LeaseTableConfig{
			Job:            j.id,
			Fingerprint:    j.fingerprint,
			Sweep:          plan.Sweep,
			Seed:           j.spec.Seed,
			Spec:           j.spec,
			TTL:            m.cfg.LeaseTTL,
			MaxAge:         m.cfg.LeaseMaxAge,
			PointsPerLease: m.cfg.PointsPerLease,
			MaxAttempts:    m.cfg.MaxPointAttempts,
			Backoff:        m.cfg.Backoff,
			Rng:            m.leaseRng,
			Clock:          m.cfg.Clock,
			OnExpire: func(id, worker string) {
				m.stats.LeasesExpired++
				delete(m.distByLease, id)
				m.releaseLeaseLocked(id)
			},
		}, pending),
	}
	m.distByFP[j.fingerprint] = d
	m.distOrder = append(m.distOrder, j.fingerprint)
	m.mu.Unlock()

	// Watchdog loop: wake frequently enough to expire dead leases well
	// inside one TTL, and to notice completion promptly.
	tick := m.cfg.LeaseTTL / 4
	if tick < 5*time.Millisecond {
		tick = 5 * time.Millisecond
	}
	if tick > time.Second {
		tick = time.Second
	}
	ticker := time.NewTicker(tick)
	defer ticker.Stop()
	var tableErr error
	for {
		m.mu.Lock()
		d.table.Expire(m.cfg.Clock())
		done := d.table.Done()
		tableErr = d.table.Failed()
		if tableErr == nil && d.err != nil {
			// A storage failure while merging this job's results: the
			// journal cannot make further progress durable, so waiting
			// out the deadline would only burn worker time.
			tableErr = d.err
		}
		m.mu.Unlock()
		if done || tableErr != nil || ctx.Err() != nil {
			break
		}
		select {
		case <-ticker.C:
		case <-ctx.Done():
		}
	}

	// Deregister before settling, so no new results or claims can touch
	// this table; the journal stays consistent because Ingest happens
	// under m.mu too.
	m.mu.Lock()
	delete(m.distByFP, j.fingerprint)
	for i, fp := range m.distOrder {
		if fp == j.fingerprint {
			m.distOrder = append(m.distOrder[:i], m.distOrder[i+1:]...)
			break
		}
	}
	for id, dd := range m.distByLease {
		if dd == d {
			delete(m.distByLease, id)
			m.releaseLeaseLocked(id)
		}
	}
	m.mu.Unlock()

	switch {
	case tableErr != nil:
		_ = jr.Close()
		m.finish(j, StateFailed, tableErr.Error(), checkpoint.JobFailed)
	case m.rootCtx.Err() != nil:
		// Shutdown, not failure: merged points are fsynced in the
		// journal, the job re-queues from its log on restart, and the
		// restarted coordinator re-leases only what is missing.
		_ = jr.Close()
		m.finish(j, StateEvicted, "shutdown: checkpointed for restart", "")
	case ctx.Err() != nil:
		_ = jr.Close()
		m.finish(j, StateFailed, fmt.Sprintf("deadline exceeded after %v", deadline), checkpoint.JobFailed)
	default:
		// Every point is journaled: render by replay. The driver finds
		// all its points cached, so this is a pure decode + format pass
		// over exactly the bytes workers computed — deterministic in
		// merge order, worker count, and crash schedule.
		base := experiments.Options{Workers: m.cfg.SweepWorkers, Ctx: ctx, Journal: jr}
		data, err := j.spec.Run(base)
		if cerr := jr.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			m.finish(j, StateFailed, fmt.Sprintf("rendering merged artifact: %v", err), checkpoint.JobFailed)
			return
		}
		if werr := checkpoint.WriteFileAtomicFS(m.fs, j.resultPath, data, 0o644); werr != nil {
			m.finish(j, StateFailed, fmt.Sprintf("persisting artifact: %v", werr), checkpoint.JobFailed)
			return
		}
		m.cache.Put(j.fingerprint, data)
		m.finish(j, StateDone, "", checkpoint.JobDone)
		_ = m.fs.Remove(m.journalPath(j.fingerprint))
	}
}

// ClaimLease grants one lease to a worker, scanning coordinating jobs
// in dispatch order. A nil lease means no work right now; retryAfter
// hints when to ask again (its zero value means "nothing coordinating —
// poll at your own pace"). The grant is journaled as a JobLeased audit
// record before it is returned, so the job log tells the whole dispatch
// story across coordinator crashes.
func (m *Manager) ClaimLease(worker string) (*Lease, time.Duration, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed || m.draining {
		return nil, 0, &Unavailable{Reason: "draining", RetryAfter: m.cfg.Backoff.Base}
	}
	m.noteWorkerLocked(worker)
	now := m.cfg.Clock()
	var retry time.Duration
	for _, fp := range m.distOrder {
		d, ok := m.distByFP[fp]
		if !ok {
			continue
		}
		lease, wait := d.table.Claim(worker, now)
		if lease != nil {
			m.distByLease[lease.ID] = d
			m.leaseWorkers[lease.ID] = worker
			m.noteWorkerLocked(worker).LeasesHeld++
			m.stats.LeasesGranted++
			if err := m.log.Append(checkpoint.JobRecord{
				ID: d.job.id, State: checkpoint.JobLeased, Fingerprint: fp,
				Note: fmt.Sprintf("lease %s worker %s attempt %d points %v", lease.ID, worker, lease.Attempt, lease.Points),
			}); err != nil {
				// The grant is an audit record, not a correctness
				// dependency — recovery treats a job on its accepted
				// record identically. Still grant the lease (the worker's
				// compute is unaffected), but flip degraded: a log that
				// cannot append audit records cannot append accepted
				// records either.
				m.enterDegradedLocked(fmt.Sprintf("job log append failed: %v", err))
			}
			return lease, 0, nil
		}
		if wait > 0 && (retry == 0 || wait < retry) {
			retry = wait
		}
	}
	return nil, retry, nil
}

// LeaseHeartbeat extends a live lease; ErrLeaseGone tells the worker to
// abandon the shard.
func (m *Manager) LeaseHeartbeat(id, worker string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.noteWorkerLocked(worker)
	d, ok := m.distByLease[id]
	if !ok {
		return ErrLeaseGone
	}
	return d.table.Heartbeat(id, m.cfg.Clock())
}

// LeaseResult merges one worker-streamed point into its job's journal.
// Routing is by fingerprint, deliberately not by lease: a worker whose
// lease expired (partition healed, straggler revoked) may still deliver
// points it finished — the work is useful and the journal deduplicates
// it. Returns whether the record was appended (false = duplicate).
// ErrLeaseGone means no coordinating job wants this fingerprint.
func (m *Manager) LeaseResult(req ResultRequest) (bool, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	row := m.noteWorkerLocked(req.Worker)
	d, ok := m.distByFP[req.Fingerprint]
	if !ok {
		return false, ErrLeaseGone
	}
	rec := req.Record
	if rec.Sweep != d.sweep || rec.Seed != d.seed || rec.Point < 0 || rec.Point >= d.total {
		row.StreamErrors++
		return false, fmt.Errorf("service: result does not match job plan (sweep %q point %d seed %d)",
			rec.Sweep, rec.Point, rec.Seed)
	}
	// Ingest verifies the CRC again and appends + fsyncs under the
	// journal's own lock; holding m.mu across it serializes the merge
	// with table bookkeeping and with coordinator teardown. Point
	// results arrive at simulation pace, so the held fsync is cheap
	// relative to the work that produced it.
	added, err := d.journal.Ingest(rec)
	if err != nil {
		if errors.Is(err, checkpoint.ErrCorruptRecord) {
			// The worker's bytes failed their CRC: a worker-side bug or
			// a corrupting transport. The journal is untouched; reject
			// the record (400), not the daemon.
			row.StreamErrors++
			return false, err
		}
		// Anything else is OUR storage failing to persist a valid
		// record: fail this job, flip the daemon read-only, and tell
		// the worker to retry against a healthy coordinator (503).
		d.err = fmt.Errorf("recording point %d: %w", rec.Point, err)
		m.enterDegradedLocked(fmt.Sprintf("journal ingest failed: %v", err))
		return false, fmt.Errorf("%w: %v", ErrStorage, err)
	}
	if added {
		m.stats.PointsMerged++
		row.PointsCommitted++
		d.job.notifyLocked()
	} else {
		m.stats.PointsDuplicate++
	}
	d.table.MarkDone(rec.Point)
	return added, nil
}

// LeaseDone settles a worker's end-of-lease report (failed points
// re-dispatch behind backoff; an empty report just retires the lease).
func (m *Manager) LeaseDone(id string, req DoneRequest) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.noteWorkerLocked(req.Worker)
	d, ok := m.distByLease[id]
	if !ok {
		return ErrLeaseGone
	}
	delete(m.distByLease, id)
	m.releaseLeaseLocked(id)
	return d.table.Report(id, req.Failed, req.Error, m.cfg.Clock())
}
