package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/experiments"
	"repro/internal/vfs"
)

// State is a job's lifecycle position. Transitions are append-only and
// observable: queued → running → done/failed, or → evicted when the
// daemon drains before the job finishes (an evicted job's accepted
// record survives in the job log, so a restarted daemon re-queues it).
type State string

const (
	StateQueued  State = "queued"
	StateRunning State = "running"
	StateDone    State = "done"
	StateFailed  State = "failed"
	StateEvicted State = "evicted"
)

// Transition is one recorded job-state change, with its reason.
type Transition struct {
	From   State     `json:"from"`
	To     State     `json:"to"`
	Reason string    `json:"reason,omitempty"`
	At     time.Time `json:"at"`
}

// JobStatus is the client-visible snapshot of one job.
type JobStatus struct {
	ID          string       `json:"id"`
	State       State        `json:"state"`
	Reason      string       `json:"reason,omitempty"`
	Fingerprint string       `json:"fingerprint"`
	Cached      bool         `json:"cached,omitempty"`
	Transitions []Transition `json:"transitions"`
}

// job is the manager's mutable job record; m.mu guards every field
// after construction.
type job struct {
	id          string
	spec        JobSpec
	fingerprint string
	state       State
	reason      string
	cached      bool
	transitions []Transition
	resultPath  string
	// changed is closed on the job's next observable change (a state
	// transition, a committed sweep point, or being forgotten by
	// retention); event streams wait on it. It is made on demand by
	// Watch, so a job nobody watches never allocates one.
	changed chan struct{}
}

// notifyLocked wakes every event stream waiting on the job; callers
// hold m.mu. The next Watch makes a fresh channel.
func (j *job) notifyLocked() {
	if j.changed != nil {
		close(j.changed)
		j.changed = nil
	}
}

// Unavailable is the transient-rejection error of Submit: the request
// was well-formed but the daemon cannot take it right now. RetryAfter
// carries the client-visible backoff hint (exponential with
// decorrelated jitter, growing while the tenant keeps being rejected).
type Unavailable struct {
	// Reason is "throttled", "queue-full", "draining", "closed",
	// "degraded" (storage failure flipped the daemon read-only) or
	// "disk-full" (free space under the admission watermark).
	Reason     string
	RetryAfter time.Duration
}

func (e *Unavailable) Error() string {
	return fmt.Sprintf("service: %s (retry after %v)", e.Reason, e.RetryAfter)
}

// Throttled reports whether the rejection is the tenant's own doing
// (rate limit, HTTP 429) rather than server-wide pressure (HTTP 503).
func (e *Unavailable) Throttled() bool { return e.Reason == "throttled" }

// ErrNotFound marks an unknown (or retention-evicted) job id.
var ErrNotFound = errors.New("service: unknown job")

// NotDoneError is returned by Result for a job that has not produced an
// artifact (yet, or ever).
type NotDoneError struct {
	State  State
	Reason string
}

func (e *NotDoneError) Error() string {
	return fmt.Sprintf("service: job is %s, not done", e.State)
}

// Config shapes a Manager.
type Config struct {
	// StateDir roots all durable state: the job log, per-job sweep
	// journals and result artifacts.
	StateDir string
	// QueueDepth bounds the number of queued jobs; submissions beyond
	// it are shed with 503 + Retry-After, never buffered without bound.
	QueueDepth int
	// JobWorkers is the number of jobs executed concurrently.
	JobWorkers int
	// SweepWorkers bounds each job's internal sweep fan-out; 0 selects
	// GOMAXPROCS. Results are byte-identical for any value.
	SweepWorkers int
	// Admission is the per-tenant token-bucket policy.
	Admission AdmissionPolicy
	// Backoff shapes the Retry-After hints on transient rejections.
	Backoff Backoff
	// CacheBytes is the result cache budget.
	CacheBytes int64
	// DefaultDeadline bounds jobs that do not request a deadline;
	// MaxDeadline clamps jobs that do.
	DefaultDeadline time.Duration
	MaxDeadline     time.Duration
	// RetainJobs bounds in-memory job metadata: beyond it the oldest
	// terminal jobs are forgotten (their artifacts stay on disk).
	RetainJobs int
	// BackoffSeed seeds the jitter stream; 0 derives from wall clock.
	BackoffSeed int64
	// Clock overrides time.Now, for tests.
	Clock func() time.Time
	// FS is the filesystem all durable state goes through; nil selects
	// the real one (vfs.OS). Fault-injection harnesses substitute a
	// vfs.Faulty here.
	FS vfs.FS
	// MinFreeBytes is the disk-watermark admission floor: while the
	// filesystem under StateDir reports less free space, new jobs are
	// shed with 503 "disk-full" before they consume an admission token
	// or touch the job log. 0 disables the check; so does a filesystem
	// that cannot report free space.
	MinFreeBytes int64

	// Distributed switches job execution from the local worker pool to
	// the lease-based coordinator: jobs are sharded into point leases
	// that remote workers (cmd/manetsimw) claim over the job API, and
	// the artifact is rendered by replaying the merged journal — byte-
	// identical to a local run. Admission, caching, the job log and
	// recovery are unchanged.
	Distributed bool
	// LeaseTTL is the worker heartbeat deadline: a lease silent for
	// longer is considered dead and re-dispatched.
	LeaseTTL time.Duration
	// LeaseMaxAge is the straggler cap: a lease older than this is
	// revoked even while heartbeats keep arriving.
	LeaseMaxAge time.Duration
	// PointsPerLease bounds the shard size of one lease grant.
	PointsPerLease int
	// MaxPointAttempts bounds re-dispatches of one sweep point before
	// the job is failed.
	MaxPointAttempts int
}

// withDefaults fills unset fields.
func (c Config) withDefaults() Config {
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.JobWorkers <= 0 {
		c.JobWorkers = 2
	}
	if c.Admission.Rate == 0 && c.Admission.Burst == 0 {
		c.Admission = AdmissionPolicy{Rate: 1, Burst: 4}
	}
	if c.Backoff.Base <= 0 {
		c.Backoff.Base = 500 * time.Millisecond
	}
	if c.Backoff.Cap <= 0 {
		c.Backoff.Cap = 30 * time.Second
	}
	if c.CacheBytes <= 0 {
		c.CacheBytes = 32 << 20
	}
	if c.DefaultDeadline <= 0 {
		c.DefaultDeadline = 10 * time.Minute
	}
	if c.MaxDeadline <= 0 {
		c.MaxDeadline = time.Hour
	}
	if c.RetainJobs <= 0 {
		c.RetainJobs = 4096
	}
	if c.BackoffSeed == 0 {
		c.BackoffSeed = time.Now().UnixNano()
	}
	if c.Clock == nil {
		c.Clock = time.Now
	}
	if c.LeaseTTL <= 0 {
		c.LeaseTTL = 10 * time.Second
	}
	if c.LeaseMaxAge <= 0 {
		c.LeaseMaxAge = 10 * c.LeaseTTL
	}
	if c.PointsPerLease <= 0 {
		c.PointsPerLease = 1
	}
	if c.MaxPointAttempts <= 0 {
		c.MaxPointAttempts = 5
	}
	return c
}

// Stats is a point-in-time snapshot of the manager.
type Stats struct {
	Accepted  int64 `json:"accepted"`
	Coalesced int64 `json:"coalesced"`
	CacheHits int64 `json:"cache_hits"`
	Throttled int64 `json:"throttled"`
	Shed      int64 `json:"shed"`
	Draining  int64 `json:"rejected_draining"`
	Done      int64 `json:"done"`
	Failed    int64 `json:"failed"`
	Evicted   int64 `json:"evicted"`
	Recovered int64 `json:"recovered"`

	// Distributed-mode counters: lease grants and revocations, and
	// worker-streamed points merged into job journals (duplicates are
	// raced or late re-sends that first-committed-wins dropped).
	LeasesGranted   int64 `json:"leases_granted,omitempty"`
	LeasesExpired   int64 `json:"leases_expired,omitempty"`
	PointsMerged    int64 `json:"points_merged,omitempty"`
	PointsDuplicate int64 `json:"points_duplicate,omitempty"`

	// Storage-health counters: submissions rejected because the daemon
	// is degraded (job-log storage failed) or because free disk space is
	// under the admission watermark.
	RejectedDegraded int64 `json:"rejected_degraded,omitempty"`
	ShedDiskFull     int64 `json:"shed_disk_full,omitempty"`

	Queued     int    `json:"queued"`
	Running    int    `json:"running"`
	IsDraining bool   `json:"is_draining"`
	IsDegraded bool   `json:"is_degraded,omitempty"`
	Degraded   string `json:"degraded_reason,omitempty"`
	Tenants    int    `json:"tenants"`
	Workers    int    `json:"workers,omitempty"`
	// WorkerRows breaks the distributed-worker registry down per worker,
	// sorted by name.
	WorkerRows []WorkerRow `json:"worker_rows,omitempty"`
	Cache      CacheStats  `json:"cache"`
}

// WorkerRow is one distributed worker's row in /v1/stats: everything
// the coordinator has observed about it.
type WorkerRow struct {
	Name string `json:"name"`
	// PointsCommitted counts results from this worker that were merged
	// into a job journal (duplicates excluded).
	PointsCommitted int64 `json:"points_committed"`
	// LeasesHeld is the number of leases currently granted to the worker.
	LeasesHeld int `json:"leases_held"`
	// LastSeenMS is the Unix-millisecond time of the worker's last
	// sighting (claim, heartbeat, result or done).
	LastSeenMS int64 `json:"last_seen_unix_ms"`
	// StreamErrors counts results from this worker the coordinator
	// rejected (CRC mismatch, plan mismatch) — a nonzero value points at
	// a worker-side bug or a corrupting transport.
	StreamErrors int64 `json:"stream_errors,omitempty"`
}

// Manager owns the daemon's job machinery: admission, the bounded
// queue, the worker pool, deadline watchdogs, the result cache, and the
// crash-safe job log. One Manager serves many concurrent HTTP requests.
type Manager struct {
	cfg     Config
	fs      vfs.FS
	log     *checkpoint.JobLog
	cache   *Cache
	adm     *Admitter
	advisor *RetryAdvisor

	rootCtx    context.Context
	rootCancel context.CancelFunc
	wg         sync.WaitGroup

	mu       sync.Mutex
	cond     *sync.Cond
	queue    []*job
	jobs     map[string]*job
	order    []string        // job ids in acceptance order, for retention
	active   map[string]*job // fingerprint → queued/running job (coalescing)
	doneByFP map[string]string
	draining bool
	closed   bool
	running  int
	stats    Stats

	// degraded latches when durable state can no longer be trusted —
	// a job-log append or fsync failed, or a distributed ingest hit a
	// storage error. A degraded daemon is read-only: status, results
	// and stats still serve, running jobs drain to completion, but new
	// submissions are rejected 503 "degraded" and /readyz is false.
	// Only a process restart (over repaired storage) clears it.
	degraded       bool
	degradedReason string

	// Distributed-mode state (nil maps stay empty in local mode).
	leaseRng     *rand.Rand          // backoff jitter for lease re-dispatch
	distByFP     map[string]*distJob // fingerprint → coordinating job
	distOrder    []string            // fingerprints in dispatch order
	distByLease  map[string]*distJob // lease id → coordinating job
	workers      map[string]*WorkerRow
	leaseWorkers map[string]string // lease id → worker name, for row upkeep
}

// distJob is one job being executed by remote workers: its lease table
// plus the journal handle worker results are merged into. The Manager's
// lock guards both (the journal additionally has its own lock, so the
// coordinator goroutine can close it without racing ingests).
type distJob struct {
	job     *job
	table   *LeaseTable
	journal *checkpoint.Journal
	sweep   string
	seed    uint64
	total   int
	// err latches the first storage failure while merging this job's
	// results; the coordinator loop fails the job on seeing it.
	err error
}

// Open builds the manager, recovers in-flight jobs from the job log and
// starts the worker pool.
func Open(cfg Config) (*Manager, error) {
	m, err := open(cfg)
	if err != nil {
		return nil, err
	}
	m.start()
	return m, nil
}

// open is Open without the worker pool, so tests can stage queue and
// admission states deterministically before execution begins.
func open(cfg Config) (*Manager, error) {
	cfg = cfg.withDefaults()
	if cfg.StateDir == "" {
		return nil, fmt.Errorf("service: StateDir is required")
	}
	fsys := vfs.Default(cfg.FS)
	for _, dir := range []string{cfg.StateDir, filepath.Join(cfg.StateDir, "jobs"), filepath.Join(cfg.StateDir, "results")} {
		if err := fsys.MkdirAll(dir, 0o755); err != nil {
			return nil, fmt.Errorf("service: %w", err)
		}
	}
	log, records, err := checkpoint.OpenJobLogFS(fsys, filepath.Join(cfg.StateDir, "jobs.log"))
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	m := &Manager{
		cfg:          cfg,
		fs:           fsys,
		log:          log,
		cache:        NewCache(cfg.CacheBytes),
		adm:          NewAdmitter(cfg.Admission, cfg.Clock),
		advisor:      NewRetryAdvisor(cfg.Backoff, cfg.BackoffSeed, cfg.Admission.MaxTenants),
		rootCtx:      ctx,
		rootCancel:   cancel,
		jobs:         map[string]*job{},
		active:       map[string]*job{},
		doneByFP:     map[string]string{},
		leaseRng:     rand.New(rand.NewSource(cfg.BackoffSeed + 1)),
		distByFP:     map[string]*distJob{},
		distByLease:  map[string]*distJob{},
		workers:      map[string]*WorkerRow{},
		leaseWorkers: map[string]string{},
	}
	m.cond = sync.NewCond(&m.mu)
	m.recover(records)
	return m, nil
}

// recover replays the job log: terminal jobs become queryable metadata
// (and their artifacts become cache-servable), accepted-but-not-
// terminal jobs — the ones in flight when the previous process died —
// are re-queued in their original acceptance order. Each re-queued job
// resumes its per-job sweep journal, so its artifact is byte-identical
// to an uninterrupted run.
func (m *Manager) recover(records []checkpoint.JobRecord) {
	type last struct {
		state string
		fp    string
		note  string
		spec  json.RawMessage
		seq   int
	}
	byID := map[string]*last{}
	var ids []string
	for _, r := range records {
		l := byID[r.ID]
		if l == nil {
			l = &last{seq: r.Seq}
			byID[r.ID] = l
			ids = append(ids, r.ID)
		}
		l.state = r.State
		if r.Fingerprint != "" {
			l.fp = r.Fingerprint
		}
		if r.Spec != nil {
			l.spec = r.Spec
		}
		if r.Note != "" {
			l.note = r.Note
		}
	}
	for _, id := range ids {
		l := byID[id]
		j := &job{id: id, fingerprint: l.fp, resultPath: m.resultPath(id)}
		switch l.state {
		case checkpoint.JobDone:
			j.state = StateDone
			j.reason = l.note
			j.cached = l.note == "cache"
			m.doneByFP[l.fp] = id
		case checkpoint.JobFailed:
			j.state = StateFailed
			j.reason = l.note
		case checkpoint.JobAccepted, checkpoint.JobLeased:
			// JobLeased is the distributed executor's dispatch audit
			// trail; a job whose last record is a lease grant was in
			// flight when the process died, exactly like one still on
			// its accepted record, and re-queues the same way (its spec
			// rides on the accepted record). The restarted coordinator
			// issues fresh leases; results streamed against old ones are
			// still mergeable because routing is by fingerprint.
			var spec JobSpec
			if err := json.Unmarshal(l.spec, &spec); err != nil || spec.Validate() != nil {
				// An unrecoverable spec (format drift across versions):
				// close it out rather than wedging recovery forever.
				j.state = StateFailed
				j.reason = "recovery: journaled spec no longer decodes"
				if err := m.log.Append(checkpoint.JobRecord{ID: id, State: checkpoint.JobFailed, Fingerprint: l.fp, Note: j.reason}); err != nil {
					m.enterDegradedLocked(fmt.Sprintf("job log append during recovery: %v", err))
				}
			} else {
				j.spec = spec
				j.state = StateQueued
				j.transitions = append(j.transitions, Transition{From: StateEvicted, To: StateQueued,
					Reason: "recovered from journal after restart", At: m.cfg.Clock()})
				m.queue = append(m.queue, j)
				m.active[l.fp] = j
				m.stats.Recovered++
			}
		default:
			continue
		}
		m.jobs[id] = j
		m.order = append(m.order, id)
	}
}

// start launches the worker pool.
func (m *Manager) start() {
	for i := 0; i < m.cfg.JobWorkers; i++ {
		m.wg.Add(1)
		go m.worker()
	}
}

// resultPath is the job's artifact location; partialPath holds the
// valid partial artifact of a job evicted mid-sweep.
func (m *Manager) resultPath(id string) string {
	return filepath.Join(m.cfg.StateDir, "results", id+".csv")
}
func (m *Manager) partialPath(id string) string {
	return filepath.Join(m.cfg.StateDir, "results", id+".partial.csv")
}

// journalPath is the job's per-sweep checkpoint journal, keyed by
// fingerprint: a recovered (or re-submitted) identical job resumes the
// completed points instead of re-simulating them. Coalescing guarantees
// at most one active job per fingerprint, so the file has one writer.
func (m *Manager) journalPath(fp string) string {
	return filepath.Join(m.cfg.StateDir, "jobs", fp+".ckpt")
}

// Submit validates nothing (the spec must already be normalized and
// valid — DecodeJobSpec's contract), applies admission control and
// queue bounds, and either coalesces onto an active identical job,
// serves the result from cache, or queues a new job. It returns the
// job's status snapshot.
func (m *Manager) Submit(spec JobSpec) (JobStatus, error) {
	fp, err := spec.Fingerprint()
	if err != nil {
		return JobStatus{}, err
	}

	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return JobStatus{}, &Unavailable{Reason: "closed", RetryAfter: m.advisor.Advise(spec.Tenant)}
	}
	if m.draining {
		m.stats.Draining++
		return JobStatus{}, &Unavailable{Reason: "draining", RetryAfter: m.advisor.Advise(spec.Tenant)}
	}
	if m.degraded {
		m.stats.RejectedDegraded++
		return JobStatus{}, &Unavailable{Reason: "degraded", RetryAfter: m.advisor.Advise(spec.Tenant)}
	}
	// Disk watermark: a submission that would be accepted onto a nearly
	// full disk is the one most likely to later fail its journal append
	// or artifact write. Shed before the admission token is consumed, so
	// the tenant's budget survives for when space returns. A filesystem
	// that cannot report free space (-1) leaves the check disabled.
	if m.cfg.MinFreeBytes > 0 {
		if free, err := m.fs.Free(m.cfg.StateDir); err == nil && free >= 0 && free < m.cfg.MinFreeBytes {
			m.stats.ShedDiskFull++
			return JobStatus{}, &Unavailable{Reason: "disk-full", RetryAfter: m.advisor.Advise(spec.Tenant)}
		}
	}
	ok, wait := m.adm.Admit(spec.Tenant)
	if !ok {
		m.stats.Throttled++
		hint := m.advisor.Advise(spec.Tenant)
		if wait > hint {
			hint = wait
		}
		return JobStatus{}, &Unavailable{Reason: "throttled", RetryAfter: hint}
	}
	m.advisor.Reset(spec.Tenant)

	// Identical active job: coalesce instead of running it twice (this
	// also keeps the fingerprint-keyed sweep journal single-writer).
	if j, ok := m.active[fp]; ok {
		m.stats.Coalesced++
		return m.snapshot(j), nil
	}
	// Identical completed job: free.
	if data, ok := m.lookupResultLocked(fp); ok {
		m.stats.CacheHits++
		j, err := m.acceptLocked(spec, fp)
		if err != nil {
			return JobStatus{}, err
		}
		if err := m.completeCachedLocked(j, data); err != nil {
			return JobStatus{}, err
		}
		return m.snapshot(j), nil
	}
	if len(m.queue) >= m.cfg.QueueDepth {
		m.stats.Shed++
		return JobStatus{}, &Unavailable{Reason: "queue-full", RetryAfter: m.advisor.Advise(spec.Tenant)}
	}

	j, err := m.acceptLocked(spec, fp)
	if err != nil {
		return JobStatus{}, err
	}
	m.queue = append(m.queue, j)
	m.active[fp] = j
	m.cond.Signal()
	return m.snapshot(j), nil
}

// acceptLocked journals the job's accepted record (fsynced before the
// submission is acknowledged) and registers its metadata.
func (m *Manager) acceptLocked(spec JobSpec, fp string) (*job, error) {
	raw, err := json.Marshal(spec)
	if err != nil {
		return nil, fmt.Errorf("service: encoding spec: %w", err)
	}
	id := fmt.Sprintf("j%06d-%s", m.log.NextSeq(), fp[:8])
	if err := m.log.Append(checkpoint.JobRecord{ID: id, State: checkpoint.JobAccepted, Fingerprint: fp, Spec: raw}); err != nil {
		// The accepted record could not be made durable, so the job must
		// not be acknowledged — and the log can no longer be trusted for
		// any job. Flip read-only and reject with a retryable 503; the
		// client's spec is intact and resubmits cleanly after the
		// operator restarts the daemon over repaired storage.
		m.enterDegradedLocked(fmt.Sprintf("job log append failed: %v", err))
		return nil, &Unavailable{Reason: "degraded", RetryAfter: m.advisor.Advise(spec.Tenant)}
	}
	j := &job{
		id: id, spec: spec, fingerprint: fp,
		state: StateQueued, resultPath: m.resultPath(id),
		transitions: []Transition{{From: "", To: StateQueued, Reason: "accepted", At: m.cfg.Clock()}},
	}
	m.jobs[id] = j
	m.order = append(m.order, id)
	m.stats.Accepted++
	m.retainLocked()
	return j, nil
}

// completeCachedLocked finishes a cache-served job without touching a
// worker: the artifact is persisted under the new job id (so the result
// endpoint works after a restart) and the terminal record is journaled.
func (m *Manager) completeCachedLocked(j *job, data []byte) error {
	if err := checkpoint.WriteFileAtomicFS(m.fs, j.resultPath, data, 0o644); err != nil {
		return err
	}
	if err := m.log.Append(checkpoint.JobRecord{ID: j.id, State: checkpoint.JobDone, Fingerprint: j.fingerprint, Note: "cache"}); err != nil {
		m.enterDegradedLocked(fmt.Sprintf("job log append failed: %v", err))
		return &Unavailable{Reason: "degraded", RetryAfter: m.advisor.Advise(j.spec.Tenant)}
	}
	j.cached = true
	m.transitionLocked(j, StateDone, "served from result cache")
	m.cache.Put(j.fingerprint, data)
	m.doneByFP[j.fingerprint] = j.id
	m.stats.Done++
	return nil
}

// lookupResultLocked finds an artifact by fingerprint: the in-memory
// cache first, then the artifact file of a completed job from a
// previous process life.
func (m *Manager) lookupResultLocked(fp string) ([]byte, bool) {
	if data, ok := m.cache.Get(fp); ok {
		return data, true
	}
	id, ok := m.doneByFP[fp]
	if !ok {
		return nil, false
	}
	data, err := m.fs.ReadFile(m.resultPath(id))
	if err != nil {
		return nil, false
	}
	m.cache.Put(fp, data)
	return data, true
}

// retainLocked bounds in-memory job metadata: the oldest terminal jobs
// are forgotten first; active jobs are never evicted.
func (m *Manager) retainLocked() {
	for len(m.jobs) > m.cfg.RetainJobs {
		evicted := false
		for i, id := range m.order {
			j, ok := m.jobs[id]
			if !ok {
				m.order = append(m.order[:i], m.order[i+1:]...)
				evicted = true
				break
			}
			if j.state == StateDone || j.state == StateFailed {
				delete(m.jobs, id)
				j.notifyLocked()
				if m.doneByFP[j.fingerprint] == id {
					delete(m.doneByFP, j.fingerprint)
				}
				m.order = append(m.order[:i], m.order[i+1:]...)
				evicted = true
				break
			}
		}
		if !evicted {
			return // everything live is active; nothing to forget
		}
	}
}

// transitionLocked appends one observable state change.
func (m *Manager) transitionLocked(j *job, to State, reason string) {
	j.transitions = append(j.transitions, Transition{From: j.state, To: to, Reason: reason, At: m.cfg.Clock()})
	j.state = to
	j.reason = reason
	j.notifyLocked()
}

// snapshot renders a job's client-visible status; callers hold m.mu.
func (m *Manager) snapshot(j *job) JobStatus {
	st := JobStatus{
		ID: j.id, State: j.state, Reason: j.reason,
		Fingerprint: j.fingerprint, Cached: j.cached,
		Transitions: append([]Transition(nil), j.transitions...),
	}
	return st
}

// Status returns a job's status snapshot.
func (m *Manager) Status(id string) (JobStatus, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	if !ok {
		return JobStatus{}, false
	}
	return m.snapshot(j), true
}

// Watch returns a job's status snapshot together with a channel that is
// closed on the job's next observable change. Both are taken under one
// lock, so a change that lands after the snapshot is never missed: the
// caller reads whatever the snapshot implies, then waits on the channel.
func (m *Manager) Watch(id string) (JobStatus, <-chan struct{}, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	if !ok {
		return JobStatus{}, nil, false
	}
	if j.changed == nil {
		j.changed = make(chan struct{})
	}
	return m.snapshot(j), j.changed, true
}

// Result returns a done job's artifact bytes.
func (m *Manager) Result(id string) ([]byte, error) {
	m.mu.Lock()
	j, ok := m.jobs[id]
	if !ok {
		m.mu.Unlock()
		return nil, ErrNotFound
	}
	state, reason, fp, path := j.state, j.reason, j.fingerprint, j.resultPath
	m.mu.Unlock()
	if state != StateDone {
		return nil, &NotDoneError{State: state, Reason: reason}
	}
	if data, ok := m.cache.Get(fp); ok {
		return data, nil
	}
	data, err := m.fs.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("service: reading artifact: %w", err)
	}
	m.cache.Put(fp, data)
	return data, nil
}

// JobInfo returns a job's spec and fingerprint. A job recovered from a
// terminal log record has a zero spec (only its outcome was retained).
func (m *Manager) JobInfo(id string) (JobSpec, string, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	if !ok {
		return JobSpec{}, "", false
	}
	return j.spec, j.fingerprint, true
}

// JournalPath exposes a job journal's location by fingerprint, for the
// event stream (which reads the durable journal rather than any
// in-memory state, so it survives coordinator restarts).
func (m *Manager) JournalPath(fp string) string { return m.journalPath(fp) }

// Ready reports whether the daemon is accepting work (readiness probe).
func (m *Manager) Ready() bool {
	ok, _ := m.ReadyState()
	return ok
}

// ReadyState is Ready with the rejection reason: "draining", "closed"
// or "degraded" (with the storage failure that caused it).
func (m *Manager) ReadyState() (bool, string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	switch {
	case m.closed:
		return false, "closed"
	case m.draining:
		return false, "draining"
	case m.degraded:
		return false, "degraded"
	}
	return true, ""
}

// enterDegradedLocked latches read-only mode; callers hold m.mu (or are
// single-threaded inside open). The first failure wins: its reason is
// what /v1/stats reports.
func (m *Manager) enterDegradedLocked(reason string) {
	if m.degraded {
		return
	}
	m.degraded = true
	m.degradedReason = reason
}

// RetryBase exposes the backoff base as the Retry-After hint for
// rejections that bypass the per-tenant advisor (lease-protocol 503s).
func (m *Manager) RetryBase() time.Duration { return m.cfg.Backoff.Base }

// StatsSnapshot returns the manager's counters and gauges.
func (m *Manager) StatsSnapshot() Stats {
	m.mu.Lock()
	defer m.mu.Unlock()
	s := m.stats
	s.Queued = len(m.queue)
	s.Running = m.running
	s.IsDraining = m.draining || m.closed
	s.IsDegraded = m.degraded
	s.Degraded = m.degradedReason
	s.Tenants = m.adm.Tenants()
	s.Workers = len(m.workers)
	if len(m.workers) > 0 {
		s.WorkerRows = make([]WorkerRow, 0, len(m.workers))
		for _, row := range m.workers {
			s.WorkerRows = append(s.WorkerRows, *row)
		}
		sort.Slice(s.WorkerRows, func(i, k int) bool { return s.WorkerRows[i].Name < s.WorkerRows[k].Name })
	}
	s.Cache = m.cache.Stats()
	return s
}

// worker executes queued jobs until drain or close.
func (m *Manager) worker() {
	defer m.wg.Done()
	for {
		j := m.next()
		if j == nil {
			return
		}
		m.runJob(j)
	}
}

// next claims the oldest queued job, blocking until one exists. It
// returns nil when the manager stops handing out work (drain/close);
// jobs already running are finished by their own workers.
func (m *Manager) next() *job {
	m.mu.Lock()
	defer m.mu.Unlock()
	for {
		if m.draining || m.closed {
			return nil
		}
		if len(m.queue) > 0 {
			j := m.queue[0]
			m.queue = m.queue[1:]
			m.running++
			m.transitionLocked(j, StateRunning, "claimed by worker")
			return j
		}
		m.cond.Wait()
	}
}

// runJob executes one job under its deadline watchdog, journals the
// outcome, and persists the artifact. A panic inside the simulation is
// converted to a per-point error by the sweep engine (RunSweepCtx's
// recover path), so a poisoned scenario fails its own job and nothing
// else. In distributed mode the computation is delegated to remote
// lease workers instead of run in-process.
func (m *Manager) runJob(j *job) {
	if m.cfg.Distributed {
		m.runDistributedJob(j)
		return
	}
	deadline := j.spec.Deadline(m.cfg.DefaultDeadline, m.cfg.MaxDeadline)
	ctx, cancel := context.WithTimeout(m.rootCtx, deadline)
	defer cancel()

	var data []byte
	jr, err := checkpoint.OpenFS(m.fs, m.journalPath(j.fingerprint), j.fingerprint)
	if err == nil {
		base := experiments.Options{Workers: m.cfg.SweepWorkers, Ctx: ctx, Journal: jr,
			// Progress settles after the point's journal append returns:
			// wake the job's event streams to re-read the journal.
			OnProgress: func(p experiments.Progress) {
				if p.Err == nil && !p.Cached {
					m.mu.Lock()
					j.notifyLocked()
					m.mu.Unlock()
				}
			}}
		data, err = j.spec.Run(base)
		if cerr := jr.Close(); err == nil {
			err = cerr
		}
	}

	switch {
	case err == nil:
		if werr := checkpoint.WriteFileAtomicFS(m.fs, j.resultPath, data, 0o644); werr != nil {
			m.finish(j, StateFailed, fmt.Sprintf("persisting artifact: %v", werr), checkpoint.JobFailed)
			return
		}
		m.cache.Put(j.fingerprint, data)
		m.finish(j, StateDone, "", checkpoint.JobDone)
		// The sweep journal of a completed job is dead weight: the
		// artifact and cache entry carry the result from here on.
		_ = m.fs.Remove(m.journalPath(j.fingerprint))
	case m.rootCtx.Err() != nil:
		// Shutdown, not failure: no terminal record is journaled, so a
		// restarted daemon re-queues the job and resumes its sweep
		// journal. Completed points were fsynced as they finished; the
		// partial artifact (when any points completed) is persisted as
		// a valid CSV under a distinct name.
		if len(data) > 0 {
			_ = checkpoint.WriteFileAtomicFS(m.fs, m.partialPath(j.id), data, 0o644)
		}
		m.finish(j, StateEvicted, "shutdown: checkpointed for restart", "")
	case ctx.Err() == context.DeadlineExceeded || errors.Is(err, experiments.ErrPointDeadline):
		m.finish(j, StateFailed, fmt.Sprintf("deadline exceeded after %v", deadline), checkpoint.JobFailed)
	default:
		m.finish(j, StateFailed, fmt.Sprintf("job failed: %v", err), checkpoint.JobFailed)
	}
}

// finish records a job's terminal state (journal first, then memory)
// and releases its fingerprint for future submissions.
func (m *Manager) finish(j *job, state State, reason string, logState string) {
	var logErr error
	if logState != "" {
		note := reason
		if state == StateDone {
			note = ""
		}
		logErr = m.log.Append(checkpoint.JobRecord{ID: j.id, State: logState, Fingerprint: j.fingerprint, Note: note})
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if logErr != nil {
		// The terminal record could not be made durable: the in-memory
		// outcome (and any artifact) still serves this process's clients,
		// but a restart will re-run the job from its accepted record —
		// safe, just wasteful. More importantly, the log is no longer
		// trustworthy: flip read-only so no further job is acknowledged
		// against it.
		m.enterDegradedLocked(fmt.Sprintf("job log append failed: %v", logErr))
	}
	switch state {
	case StateDone:
		m.transitionLocked(j, StateDone, "artifact written")
		m.doneByFP[j.fingerprint] = j.id
		m.stats.Done++
	case StateFailed:
		m.transitionLocked(j, StateFailed, reason)
		m.stats.Failed++
	case StateEvicted:
		m.transitionLocked(j, StateEvicted, reason)
		m.stats.Evicted++
	}
	delete(m.active, j.fingerprint)
	m.running--
	m.cond.Broadcast()
}

// Drain performs the graceful-shutdown contract: stop admitting, let
// running jobs finish until ctx expires, then cancel them cooperatively
// (they checkpoint and become recoverable), and return once no job is
// running. Queued jobs are evicted immediately — their accepted records
// make them re-queue on the next start.
func (m *Manager) Drain(ctx context.Context) {
	m.mu.Lock()
	if m.draining {
		m.mu.Unlock()
		return
	}
	m.draining = true
	for _, j := range m.queue {
		m.transitionLocked(j, StateEvicted, "draining: re-queued on next start")
		delete(m.active, j.fingerprint)
		m.stats.Evicted++
	}
	m.queue = nil
	m.cond.Broadcast()
	m.mu.Unlock()

	graceful := m.waitIdle(ctx.Done())
	if !graceful {
		// Out of patience: abort in-flight jobs cooperatively. They
		// stop within one simulation tick, checkpoint, and recover on
		// the next start.
		m.rootCancel()
		m.waitIdle(nil)
	}
}

// waitIdle blocks until no job is running, or until stop fires; it
// reports whether idleness was reached.
func (m *Manager) waitIdle(stop <-chan struct{}) bool {
	ticker := time.NewTicker(20 * time.Millisecond)
	defer ticker.Stop()
	for {
		m.mu.Lock()
		idle := m.running == 0
		m.mu.Unlock()
		if idle {
			return true
		}
		select {
		case <-stop:
			return false
		case <-ticker.C:
		}
	}
}

// Close hard-stops the manager: cancels every in-flight job
// cooperatively, waits for the workers, and closes the job log. Unlike
// Drain it does not wait for jobs to finish naturally — in-flight jobs
// are checkpointed and recoverable, which is exactly the contract a
// crash gets, minus the torn tail.
func (m *Manager) Close() error {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return nil
	}
	m.closed = true
	m.cond.Broadcast()
	m.mu.Unlock()
	m.rootCancel()
	m.wg.Wait()
	return m.log.Close()
}
