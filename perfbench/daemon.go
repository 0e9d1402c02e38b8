package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/service"
)

// daemon: an open loop of measure jobs into an in-process manetsimd.
// distributed: a closed loop of Figure 1 jobs into an in-process lease
// coordinator with one in-process service.Worker.

// stateDir is the daemon's state directory inside its memFS.
const stateDir = "state"

// server is one in-process manetsimd: a service.Manager behind the
// service HTTP API on a loopback listener, plus an optional worker.
type server struct {
	m      *service.Manager
	http   *http.Server
	served chan struct{}
	url    string
	client *http.Client

	stopWorker func()
	workerDone chan struct{}
}

// startServer opens the manager over cfg and serves it on loopback; it
// returns once /readyz answers 200.
func startServer(cfg service.Config, conns int) (*server, error) {
	m, err := service.Open(cfg)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		_ = m.Close() // the listen error is the one to report
		return nil, err
	}
	s := &server{
		m:      m,
		http:   &http.Server{Handler: service.NewServer(m, 0).Handler()},
		served: make(chan struct{}),
		url:    "http://" + ln.Addr().String(),
		client: &http.Client{Transport: &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns}},
	}
	go func() {
		defer close(s.served)
		_ = s.http.Serve(ln) // returns ErrServerClosed on stop
	}()
	resp, err := s.client.Get(s.url + "/readyz")
	if err == nil {
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("readyz answered %s", resp.Status)
		}
	}
	if err != nil {
		s.stop()
		return nil, err
	}
	return s, nil
}

// startWorker runs a lease worker against the server until stop.
func (s *server) startWorker(client *http.Client) error {
	w, err := service.NewWorker(service.WorkerConfig{
		Coordinator: s.url, Name: "w1", SweepWorkers: 1, Client: client,
	})
	if err != nil {
		return err
	}
	ctx, cancel := context.WithCancel(context.Background())
	s.stopWorker, s.workerDone = cancel, make(chan struct{})
	go func() {
		defer close(s.workerDone)
		_ = w.Run(ctx) // returns nil once ctx is cancelled
	}()
	return nil
}

// stop shuts the worker, the daemon and the listener down, as manetsimd
// does on SIGTERM, and waits for each to end.
func (s *server) stop() {
	if s.stopWorker != nil {
		s.stopWorker()
		<-s.workerDone
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	s.m.Drain(ctx)
	_ = s.http.Shutdown(ctx) // a timeout leaves Close to end the streams
	_ = s.http.Close()
	<-s.served
	_ = s.m.Close()
	s.client.CloseIdleConnections()
}

// jobRun is one job as its client saw it.
type jobRun struct {
	spec     int // index into the workload's distinct specs
	due      time.Time
	submit   time.Duration // POST /v1/jobs round trip
	terminal time.Time     // terminal event received
	end      time.Time     // result received
	id       string
	data     []byte
	refused  bool
	err      error
	status   service.JobStatus // traced runs: the job's transitions
}

func (j jobRun) ok() bool { return !j.refused && j.err == nil }

// latency is the job's time from when it was due to its result.
func (j jobRun) latency() float64 { return j.end.Sub(j.due).Seconds() }

// submit posts spec to /v1/jobs and returns the job's snapshot, when
// the daemon took the job, and the HTTP status.
func (s *server) submit(spec service.JobSpec) (service.JobStatus, int, error) {
	var st service.JobStatus
	body, err := json.Marshal(spec)
	if err != nil {
		return st, 0, err
	}
	resp, err := s.client.Post(s.url+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		return st, 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusOK || resp.StatusCode == http.StatusAccepted {
		err = json.NewDecoder(resp.Body).Decode(&st)
	}
	_, _ = io.Copy(io.Discard, resp.Body) // lets the connection be reused
	return st, resp.StatusCode, err
}

// doJob submits spec, follows the job's event stream to its terminal
// event and fetches the result, as a client of the job API does.
func (s *server) doJob(spec service.JobSpec, status bool) jobRun {
	var r jobRun
	start := time.Now()
	st, code, err := s.submit(spec)
	r.submit = time.Since(start)
	switch {
	case code == http.StatusTooManyRequests || code == http.StatusServiceUnavailable:
		r.refused = true
		return r
	case err != nil:
		r.err = fmt.Errorf("submit: %v", err)
		return r
	case code != http.StatusOK && code != http.StatusAccepted:
		r.err = fmt.Errorf("submit: HTTP %d", code)
		return r
	}
	r.id = st.ID
	if r.err = s.awaitTerminal(r.id); r.err != nil {
		return r
	}
	r.terminal = time.Now()
	r.data, r.err = s.get("/v1/jobs/" + r.id + "/result")
	r.end = time.Now()
	if r.err == nil && status {
		var raw []byte
		if raw, r.err = s.get("/v1/jobs/" + r.id); r.err == nil {
			r.err = json.Unmarshal(raw, &r.status)
		}
	}
	return r
}

// awaitTerminal reads the job's NDJSON event stream up to its terminal
// state event, which must report done.
func (s *server) awaitTerminal(id string) error {
	resp, err := s.client.Get(s.url + "/v1/jobs/" + id + "/events")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var ev service.JobEvent
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			return fmt.Errorf("events: %v", err)
		}
		if ev.Type == "state" {
			if ev.State != service.StateDone {
				return fmt.Errorf("job %s ended %s: %s", id, ev.State, ev.Reason)
			}
			return nil
		}
	}
	return fmt.Errorf("events of job %s ended without a terminal state: %v", id, sc.Err())
}

func (s *server) get(path string) ([]byte, error) {
	resp, err := s.client.Get(s.url + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err == nil && resp.StatusCode != http.StatusOK {
		err = fmt.Errorf("GET %s: %s", path, resp.Status)
	}
	return data, err
}

// transitionAt returns when the job entered state to.
func transitionAt(st service.JobStatus, to service.State) (time.Time, bool) {
	for _, t := range st.Transitions {
		if t.To == to {
			return t.At, true
		}
	}
	return time.Time{}, false
}

// needCPUs reports a workload as not measured on a host with fewer CPUs
// than the connections and threads it needs.
func needCPUs(n int, what string) error {
	if runtime.NumCPU() < n {
		return fmt.Errorf("%w: %s needs %d CPUs, the host has %d", errNotMeasured, what, n, runtime.NumCPU())
	}
	return nil
}

// seeds draws distinct non-zero job seeds (0 would map to the default 42).
func seeds(rng *rand.Rand, n int) []uint64 {
	seen := map[uint64]bool{}
	var out []uint64
	for len(out) < n {
		s := rng.Uint64()>>1 + 1
		if !seen[s] {
			seen[s] = true
			out = append(out, s)
		}
	}
	return out
}

// measureSpec is a measure job at the spec defaults with the given seed.
func measureSpec(seed uint64) service.JobSpec {
	return service.JobSpec{Kind: service.KindMeasure, Tenant: "bench", Seed: seed}
}

// daemonConfig is manetsimd's default configuration over fs, with the
// admission rate and burst raised as an operator would with -rate and
// -burst, so that admission never refuses the offered load.
func daemonConfig(fs *memFS, ops *ioCounts) service.Config {
	cfg := service.Config{StateDir: stateDir, Admission: service.AdmissionPolicy{Rate: 1000, Burst: 1000}, FS: fs}
	if ops != nil {
		cfg.FS = countingFS{FS: fs, c: ops}
	}
	return cfg
}

// openLoop is one measured phase of the daemon workload.
type openLoop struct {
	runs   []jobRun
	lag    time.Duration // how late the generator handed out the latest job
	setup  float64
	rss    float64 // peak RSS at the end of the phase, before the checks
	stats0 service.Stats
	stats1 service.Stats
}

// daemonPhase sets the daemon up over the warm state and drives the open
// loop for the given time. Jobs are due at a fixed rate; at most nproc
// are in flight, so a stall makes later jobs late, and each job's
// latency counts from when it was due.
func daemonPhase(c config, plan daemonInputs, warm *memFS, seconds time.Duration, ops *ioCounts) (*openLoop, error) {
	conns := runtime.NumCPU()
	var s *server
	setup, err := measuredSetup(c.size.setups, func() (func(), error) {
		var err error
		s, err = startServer(daemonConfig(warm.clone(), ops), conns)
		if err != nil {
			return nil, err
		}
		for _, spec := range plan.warm[:min(setupHits, len(plan.warm))] {
			if r := s.doJob(spec, false); !r.ok() {
				s.stop()
				return nil, fmt.Errorf("warm-up job: refused=%t %v", r.refused, r.err)
			}
		}
		return s.stop, nil
	})
	if err != nil {
		return nil, err
	}
	defer s.stop()

	n := int(c.size.daemonRate * seconds.Seconds())
	n = min(max(n, 1), len(plan.order))
	p := &openLoop{runs: make([]jobRun, n), setup: setup, stats0: s.m.StatsSnapshot()}
	if ops != nil {
		ops.syncs.Store(0)
		ops.writeBytes.Store(0)
	}
	type dueJob struct {
		k   int
		due time.Time
	}
	next := make(chan dueJob)
	var wg sync.WaitGroup
	for i := 0; i < conns; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range next {
				r := s.doJob(plan.specs[plan.order[j.k]], ops != nil)
				r.spec, r.due = plan.order[j.k], j.due
				p.runs[j.k] = r
			}
		}()
	}
	start := time.Now().Add(10 * time.Millisecond)
	interval := time.Duration(float64(time.Second) / c.size.daemonRate)
	for k := 0; k < n; k++ {
		due := start.Add(time.Duration(k) * interval)
		time.Sleep(time.Until(due))
		next <- dueJob{k, due}
		p.lag = max(p.lag, time.Since(due))
	}
	close(next)
	wg.Wait()
	p.stats1 = s.m.StatsSnapshot()
	p.rss = peakRSSMB()
	return p, nil
}

// daemonInputs are the daemon workload's inputs: the jobs of the untimed
// warm-up pass, and the measured phase's distinct specs with the order
// they are submitted in.
type daemonInputs struct {
	warm  []service.JobSpec
	specs []service.JobSpec
	order []int
}

// setupHits is the number of warm-up jobs each daemon set-up submits
// again. They are served from the warm state's artifacts, so they take
// the same path every time; a fresh job would race the events stream's
// 25 ms poll and make the set-up time bimodal.
const setupHits = 4

// daemonPlan draws the inputs from the seed; every fourth job of the
// measured phase repeats an earlier one.
func daemonPlan(seed uint64, warmJobs, jobs int) daemonInputs {
	rng := rand.New(rand.NewSource(int64(seed)))
	all := seeds(rng, warmJobs+jobs)
	var in daemonInputs
	for _, s := range all[:warmJobs] {
		in.warm = append(in.warm, measureSpec(s))
	}
	fresh := all[warmJobs:]
	for k := 0; k < jobs; k++ {
		if k%4 == 3 {
			in.order = append(in.order, in.order[rng.Intn(len(in.order))])
			continue
		}
		in.order = append(in.order, len(in.specs))
		in.specs = append(in.specs, measureSpec(fresh[len(in.specs)]))
	}
	return in
}

// warmState runs the untimed warm-up pass, whose job log every set-up
// then replays: the warm-up jobs, then hits more submissions of them,
// which the result cache serves, so the log grows as a long-running
// daemon's does without more compute.
func warmState(warm []service.JobSpec, hits int) (*memFS, error) {
	fs := newMemFS()
	cfg := daemonConfig(fs, nil)
	cfg.Admission = service.AdmissionPolicy{Rate: 1e9, Burst: 1e9} // the pass is not paced
	s, err := startServer(cfg, 1)
	if err != nil {
		return nil, err
	}
	defer s.stop()
	for _, spec := range warm {
		if r := s.doJob(spec, false); !r.ok() {
			return nil, fmt.Errorf("warm-up job: refused=%t %v", r.refused, r.err)
		}
	}
	for i := 0; i < hits; i++ {
		if _, code, err := s.submit(warm[i%len(warm)]); err != nil || code != http.StatusOK {
			return nil, fmt.Errorf("warm-up cache hit: HTTP %d %v", code, err)
		}
	}
	return fs, nil
}

// checkRuns checks every job's output: a repeated spec must return the
// bytes its first run returned, and the first run must equal what
// reference renders in-process. It counts attempts and failures.
func checkRuns(o *outcome, runs []jobRun, specs []service.JobSpec, reference func(service.JobSpec) ([]byte, error)) {
	first := map[int][]byte{}
	for _, r := range runs {
		o.attempted++
		if !r.ok() {
			o.failed++
			if r.err != nil {
				o.problem("job %s: %v", r.id, r.err)
			}
			continue
		}
		if prev, ok := first[r.spec]; ok {
			if !bytes.Equal(prev, r.data) {
				o.problem("job %s: a repeated spec returned other bytes", r.id)
			}
			continue
		}
		first[r.spec] = r.data
		want, err := reference(specs[r.spec])
		if err != nil {
			o.problem("reference for job %s: %v", r.id, err)
		} else if !bytes.Equal(want, r.data) {
			o.problem("job %s: result differs from the in-process run of its spec", r.id)
		}
	}
}

// measureReference renders a measure spec in-process with MeasureCSV.
func measureReference(spec service.JobSpec) ([]byte, error) {
	n := spec.Normalized()
	opts := experiments.DefaultOptions()
	opts.Seed, opts.TargetEvents, opts.Workers = n.Seed, n.Events, 1
	return experiments.MeasureCSV(core.Network{N: n.N, R: n.R, V: n.V, Density: n.Density}, opts)
}

// latencies returns the completed jobs' latencies in seconds.
func latencies(runs []jobRun) []float64 {
	var out []float64
	for _, r := range runs {
		if r.ok() {
			out = append(out, r.latency())
		}
	}
	return out
}

func runDaemon(c config) (*outcome, error) {
	if err := needCPUs(2, "the daemon's two job workers"); err != nil {
		return nil, err
	}
	o := newOutcome()
	jobs := int(c.size.daemonRate * c.seconds.Seconds())
	plan := daemonPlan(c.seed, c.size.warmJobs, max(jobs, 1))
	warm, err := warmState(plan.warm, c.size.warmHits)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(c.log, "# daemon: state on an in-memory vfs.FS; %g jobs/s offered, at most %d in flight\n",
		c.size.daemonRate, runtime.NumCPU())

	if !c.trace {
		p, err := daemonPhase(c, plan, warm, c.seconds, nil)
		if err != nil {
			return nil, err
		}
		checkRuns(o, p.runs, plan.specs, measureReference)
		openLoopMetrics(o, p)
		return o, nil
	}

	// Traced: half the time untraced, then half with the state directory
	// behind the counting FS and every job's transitions fetched.
	half := c.seconds / 2
	plain, err := daemonPhase(c, plan, warm, half, nil)
	if err != nil {
		return nil, err
	}
	var ops ioCounts
	traced, err := daemonPhase(c, plan, warm, half, &ops)
	if err != nil {
		return nil, err
	}
	refs := map[uint64][]byte{}
	reference := func(spec service.JobSpec) ([]byte, error) {
		if data, ok := refs[spec.Seed]; ok {
			return data, nil
		}
		data, err := measureReference(spec)
		refs[spec.Seed] = data
		return data, err
	}
	checkRuns(o, plain.runs, plan.specs, reference)
	checkRuns(o, traced.runs, plan.specs, reference)

	var submit, queued, run, notify []float64
	done := 0
	for _, r := range traced.runs {
		if !r.ok() {
			continue
		}
		done++
		submit = append(submit, ms(r.submit))
		q, okQ := transitionAt(r.status, service.StateQueued)
		start, okR := transitionAt(r.status, service.StateRunning)
		end, okD := transitionAt(r.status, service.StateDone)
		if okQ && okR && okD {
			queued = append(queued, ms(start.Sub(q)))
			run = append(run, ms(end.Sub(start)))
		}
		if okD {
			notify = append(notify, ms(r.terminal.Sub(end)))
		}
	}
	hits := traced.stats1.CacheHits - traced.stats0.CacheHits
	m := o.metrics
	m["service.submit_ms"] = median(submit)
	m["service.queue_wait_ms"] = median(queued)
	m["service.run_ms"] = median(run)
	m["service.notify_ms"] = median(notify)
	if done > 0 {
		m["service.cache_hit_frac"] = float64(hits) / float64(done)
		m["vfs.fsyncs_per_job"] = float64(ops.syncs.Load()) / float64(done)
		m["vfs.write_bytes_per_job"] = float64(ops.writeBytes.Load()) / float64(done)
	}
	m["bench.gen_lag_ms"] = ms(traced.lag)
	m["bench.trace_overhead"] = median(latencies(traced.runs)) / median(latencies(plain.runs))
	return o, nil
}

// openLoopMetrics reports the daemon's end-to-end metrics.
func openLoopMetrics(o *outcome, p *openLoop) {
	lat := latencies(p.runs)
	var last time.Time
	for _, r := range p.runs {
		if r.ok() && r.end.After(last) {
			last = r.end
		}
	}
	wall := last.Sub(p.runs[0].due).Seconds()
	o.metrics["setup_s"] = p.setup
	o.metrics["wall_s"] = wall
	o.metrics["job_p50_ms"] = 1000 * median(lat)
	o.metrics["job_p95_ms"] = 1000 * quantile(lat, 0.95)
	o.metrics["jobs_per_s"] = float64(len(lat)) / wall
	o.metrics["peak_rss_mb"] = p.rss
}

// leaseTrace counts and times the worker's calls to the lease API, per
// endpoint, and records when each lease was granted and reported done.
type leaseTrace struct {
	inner http.RoundTripper

	mu                 sync.Mutex
	claims, emptyClaim int
	rpc                time.Duration
	leaseJob           map[string]string    // lease id → job id
	granted, reported  map[string]time.Time // lease id → claim, done return
}

func newLeaseTrace() *leaseTrace {
	return &leaseTrace{
		inner:    http.DefaultTransport,
		leaseJob: map[string]string{},
		granted:  map[string]time.Time{},
		reported: map[string]time.Time{},
	}
}

func (t *leaseTrace) RoundTrip(req *http.Request) (*http.Response, error) {
	start := time.Now()
	resp, err := t.inner.RoundTrip(req)
	claim := req.URL.Path == "/v1/leases/claim"
	var lease service.Lease
	if err == nil && claim && resp.StatusCode == http.StatusOK {
		// Read the grant before taking the lock; the worker gets a copy.
		var body []byte
		body, err = io.ReadAll(resp.Body)
		resp.Body.Close()
		resp.Body = io.NopCloser(bytes.NewReader(body))
		_ = json.Unmarshal(body, &lease) // the worker reports a bad grant itself
	}
	end := time.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.rpc += end.Sub(start)
	switch {
	case err != nil:
		return nil, err
	case claim:
		t.claims++
		if resp.StatusCode == http.StatusNoContent {
			t.emptyClaim++
		} else if lease.ID != "" {
			t.leaseJob[lease.ID] = lease.Job
			t.granted[lease.ID] = end
		}
	case strings.HasSuffix(req.URL.Path, "/done"):
		id := strings.TrimSuffix(strings.TrimPrefix(req.URL.Path, "/v1/leases/"), "/done")
		t.reported[id] = end
	}
	return resp, nil
}

func (t *leaseTrace) reset() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.claims, t.emptyClaim, t.rpc = 0, 0, 0
}

// perJob folds lease timings by job: busy time and the last done report.
func (t *leaseTrace) perJob() (busy map[string]time.Duration, lastDone map[string]time.Time) {
	t.mu.Lock()
	defer t.mu.Unlock()
	busy, lastDone = map[string]time.Duration{}, map[string]time.Time{}
	for id, job := range t.leaseJob {
		done, ok := t.reported[id]
		if !ok {
			continue
		}
		busy[job] += done.Sub(t.granted[id])
		if done.After(lastDone[job]) {
			lastDone[job] = done
		}
	}
	return busy, lastDone
}

// distPhase sets the coordinator and its worker up and runs the closed
// loop for the given time: one client, one job at a time.
func distPhase(c config, rng *rand.Rand, warmupSeed uint64, seconds time.Duration, lt *leaseTrace) ([]jobRun, []service.JobSpec, float64, time.Duration, error) {
	var s *server
	setup, err := measuredSetup(c.size.setups, func() (func(), error) {
		var err error
		cfg := service.Config{StateDir: stateDir, FS: newMemFS(), Distributed: true}
		if s, err = startServer(cfg, 1); err != nil {
			return nil, err
		}
		client := &http.Client{Timeout: 30 * time.Second}
		if lt != nil {
			client.Transport = lt
		}
		if err := s.startWorker(client); err != nil {
			s.stop()
			return nil, err
		}
		if r := s.doJob(distSpec(c, warmupSeed), false); !r.ok() {
			s.stop()
			return nil, fmt.Errorf("warm-up job: refused=%t %v", r.refused, r.err)
		}
		return s.stop, nil
	})
	if err != nil {
		return nil, nil, 0, 0, err
	}
	defer s.stop()
	if lt != nil {
		lt.reset() // count the measured phase only
	}
	var runs []jobRun
	var specs []service.JobSpec
	start := time.Now()
	for len(runs) == 0 || time.Since(start) < seconds {
		spec := distSpec(c, seeds(rng, 1)[0])
		due := time.Now()
		r := s.doJob(spec, lt != nil)
		r.spec, r.due = len(specs), due
		runs = append(runs, r)
		specs = append(specs, spec)
	}
	return runs, specs, setup, time.Since(start), nil
}

// distSpec is the distributed workload's job: Figure 1 at the workload's
// event count.
func distSpec(c config, seed uint64) service.JobSpec {
	return service.JobSpec{Kind: service.KindFigure, Fig: 1, Tenant: "bench", Seed: seed, Events: c.size.distEvents}
}

// figureReference renders a figure spec in-process with FigureCSV.
func figureReference(spec service.JobSpec) ([]byte, error) {
	return experiments.FigureCSV(spec.Fig, figureOptions(spec.Seed, spec.Events))
}

func runDistributed(c config) (*outcome, error) {
	if err := needCPUs(2, "the coordinator and its worker"); err != nil {
		return nil, err
	}
	o := newOutcome()
	fmt.Fprintf(c.log, "# distributed: state on an in-memory vfs.FS; 1 client, 1 worker\n")
	rng := rand.New(rand.NewSource(int64(c.seed)))
	warmup := seeds(rng, 1)[0]
	if !c.trace {
		runs, specs, setup, elapsed, err := distPhase(c, rng, warmup, c.seconds, nil)
		if err != nil {
			return nil, err
		}
		o.metrics["setup_s"] = setup
		o.metrics["wall_s"] = elapsed.Seconds() / float64(len(runs))
		jobMetrics(c, o, latencies(runs)) // before the checks, which take memory of their own
		checkRuns(o, runs, specs, figureReference)
		return o, nil
	}

	half := c.seconds / 2
	plain, specs, _, _, err := distPhase(c, rng, warmup, half, nil)
	if err != nil {
		return nil, err
	}
	checkRuns(o, plain, specs, figureReference)
	lt := newLeaseTrace()
	traced, specs, _, _, err := distPhase(c, rng, warmup, half, lt)
	if err != nil {
		return nil, err
	}
	checkRuns(o, traced, specs, figureReference)

	busy, lastDone := lt.perJob()
	var share, toTerminal []float64
	done := 0
	for _, r := range traced {
		if !r.ok() {
			continue
		}
		done++
		share = append(share, busy[r.id].Seconds()/r.latency())
		if at, ok := transitionAt(r.status, service.StateDone); ok && !lastDone[r.id].IsZero() {
			toTerminal = append(toTerminal, ms(at.Sub(lastDone[r.id])))
		}
	}
	m := o.metrics
	if done > 0 {
		lt.mu.Lock()
		m["lease.claims_per_job"] = float64(lt.claims) / float64(done)
		m["lease.empty_claims_per_job"] = float64(lt.emptyClaim) / float64(done)
		m["lease.rpc_ms_per_job"] = ms(lt.rpc) / float64(done)
		lt.mu.Unlock()
	}
	m["dist.compute_share"] = median(share)
	m["dist.done_to_terminal_ms"] = median(toTerminal)
	m["bench.trace_overhead"] = median(latencies(traced)) / median(latencies(plain))
	return o, nil
}
