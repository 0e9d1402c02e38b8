package service

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/vfs"
)

// readEvents consumes a /v1/jobs/{id}/events stream to its terminal
// state event and returns every decoded line.
func readEvents(t *testing.T, url, id string) []JobEvent {
	t.Helper()
	resp, err := http.Get(url + "/v1/jobs/" + id + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("events stream answered %s", resp.Status)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("content type %q", ct)
	}
	var events []JobEvent
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var e JobEvent
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			t.Fatalf("bad event line %q: %v", sc.Text(), err)
		}
		events = append(events, e)
		if e.Type == "state" {
			return events
		}
	}
	t.Fatalf("stream ended without a state event after %d events (scan err %v)", len(events), sc.Err())
	return nil
}

// checkPointOrder asserts the stream shape: every point of the plan in
// strict index order, then exactly one terminal state event.
func checkPointOrder(t *testing.T, events []JobEvent, sweep string, points int, state State) {
	t.Helper()
	if len(events) != points+1 {
		t.Fatalf("got %d events, want %d points + 1 state: %+v", len(events), points, events)
	}
	for i := 0; i < points; i++ {
		e := events[i]
		if e.Type != "point" || e.Sweep != sweep || e.Point != i {
			t.Fatalf("event %d = %+v, want point %d of sweep %q in order", i, e, i, sweep)
		}
		if e.Done != i+1 || e.Total != points {
			t.Fatalf("event %d progress %d/%d, want %d/%d", i, e.Done, e.Total, i+1, points)
		}
	}
	last := events[points]
	if last.Type != "state" || last.State != state {
		t.Fatalf("terminal event = %+v, want state %q", last, state)
	}
}

// TestEventsStreamHoldsGaps forces out-of-order point completion (the
// point-0 worker is frozen while points 1 and 2 finish) and asserts the
// stream still emits points in strict index order, holding the gap
// until point 0 lands.
func TestEventsStreamHoldsGaps(t *testing.T) {
	if testing.Short() {
		t.Skip("figure sweep is not short")
	}
	m, srv := startCoordinator(t, distConfig(t))
	defer srv.Close()
	defer m.Close()

	// Both workers share one hook: whichever of them wins the claim race
	// for point 0 freezes in it (heartbeats still flowing) until
	// released, while the other computes points 1 and 2. The journal
	// then holds the later points before point 0 exists.
	var mu sync.Mutex
	frozen := false
	release := make(chan struct{})
	var once sync.Once
	unblock := func() { once.Do(func() { close(release) }) }
	hook := func(sweep string, point int) {
		if point != 0 {
			return
		}
		mu.Lock()
		frozen = true
		mu.Unlock()
		<-release
	}
	startWorker(t, srv.URL, "w1", hook)
	startWorker(t, srv.URL, "w2", hook)
	// Registered after the workers so it runs before their cleanups
	// (LIFO): no failure path may strand a worker inside the hook, or
	// the cleanup would deadlock waiting for its goroutine.
	t.Cleanup(unblock)

	spec := testFigureSpec("frank", 29)
	st := mustSubmit(t, m, spec)

	// Wait until the later points are journaled while point 0 is frozen,
	// then watch the stream: it must not have emitted anything yet.
	deadline := time.Now().Add(60 * time.Second)
	for {
		s := m.StatsSnapshot()
		mu.Lock()
		f := frozen
		mu.Unlock()
		if f && s.PointsMerged >= 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("never reached frozen-point-0 + 2 merged points (stats %+v)", s)
		}
		time.Sleep(5 * time.Millisecond)
	}
	done := make(chan []JobEvent, 1)
	go func() { done <- readEvents(t, srv.URL, st.ID) }()
	select {
	case evs := <-done:
		t.Fatalf("stream finished while point 0 was still frozen: %+v", evs)
	case <-time.After(300 * time.Millisecond):
		// Held, as required: points 1 and 2 are journaled but unemitted.
	}
	unblock()
	checkPointOrder(t, <-done, "recovery", 3, StateDone)
	waitTerminal(t, m, st.ID)
}

// TestEventsStreamSurvivesRestart kills the coordinator after at least
// one merged point and reconnects the stream to the restarted process:
// the stream replays from point 0 (the journal is the durable event
// log) and runs through to the terminal state, in order.
func TestEventsStreamSurvivesRestart(t *testing.T) {
	if testing.Short() {
		t.Skip("coordinator restart over a figure sweep is not short")
	}
	cfg := distConfig(t)
	stateDir := cfg.StateDir
	m1, srv1 := startCoordinator(t, cfg)
	stop1 := startWorker(t, srv1.URL, "w1", nil)

	spec := testFigureSpec("grace", 31)
	st := mustSubmit(t, m1, spec)
	deadline := time.Now().Add(60 * time.Second)
	for m1.StatsSnapshot().PointsMerged < 1 {
		if time.Now().After(deadline) {
			t.Fatal("no points merged before restart")
		}
		time.Sleep(5 * time.Millisecond)
	}
	stop1()
	srv1.Close()
	if err := m1.Close(); err != nil {
		t.Fatal(err)
	}

	cfg2 := distConfig(t)
	cfg2.StateDir = stateDir
	m2, srv2 := startCoordinator(t, cfg2)
	defer srv2.Close()
	defer m2.Close()
	startWorker(t, srv2.URL, "w2", nil)

	events := readEvents(t, srv2.URL, st.ID)
	checkPointOrder(t, events, "recovery", 3, StateDone)
	if fin := waitTerminal(t, m2, st.ID); fin.State != StateDone {
		t.Fatalf("job ended %s (%s)", fin.State, fin.Reason)
	}
}

// TestEventsUnknownJob pins the 404 path.
func TestEventsUnknownJob(t *testing.T) {
	m, srv := startCoordinator(t, distConfig(t))
	defer srv.Close()
	defer m.Close()
	resp, err := http.Get(srv.URL + "/v1/jobs/nope/events")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown job events = %s, want 404", resp.Status)
	}
}

// journalGateFS is the real filesystem with a view into the event
// stream's journal traffic. It counts reads of sweep journals (*.ckpt),
// can hold the next such read until released, and — when gated — holds
// every journal append until the test hands it a token: nil lets the
// append through, an error fails it.
type journalGateFS struct {
	vfs.FS
	reads    atomic.Int64
	holdRead atomic.Pointer[readHold]

	gated      bool
	appendHeld chan struct{} // one token per append that reached the gate
	tokens     chan error
	openOnce   sync.Once
}

// readHold parks one journal read: held closes when the read arrives,
// and the read proceeds once release closes.
type readHold struct {
	held, release chan struct{}
}

func newJournalGateFS(gated bool) *journalGateFS {
	return &journalGateFS{FS: vfs.OS, gated: gated,
		appendHeld: make(chan struct{}, 64), tokens: make(chan error, 64)}
}

func (g *journalGateFS) ReadFile(name string) ([]byte, error) {
	if strings.HasSuffix(name, ".ckpt") {
		g.reads.Add(1)
		if h := g.holdRead.Swap(nil); h != nil {
			close(h.held)
			<-h.release
		}
	}
	return g.FS.ReadFile(name)
}

func (g *journalGateFS) OpenFile(name string, flag int, perm os.FileMode) (vfs.File, error) {
	f, err := g.FS.OpenFile(name, flag, perm)
	if err != nil || !g.gated || !strings.HasSuffix(name, ".ckpt") {
		return f, err
	}
	return gatedFile{File: f, g: g}, nil
}

// open lets every current and future append through.
func (g *journalGateFS) open() { g.openOnce.Do(func() { close(g.tokens) }) }

// awaitAppend blocks until an append is waiting at the gate.
func (g *journalGateFS) awaitAppend(t *testing.T) {
	t.Helper()
	select {
	case <-g.appendHeld:
	case <-time.After(60 * time.Second):
		t.Fatal("no journal append reached the gate")
	}
}

// awaitReads blocks until the journal has been read at least n times.
func (g *journalGateFS) awaitReads(t *testing.T, n int64) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for g.reads.Load() < n {
		if time.Now().After(deadline) {
			t.Fatalf("journal read %d times, want at least %d", g.reads.Load(), n)
		}
		time.Sleep(time.Millisecond)
	}
}

type gatedFile struct {
	vfs.File
	g *journalGateFS
}

func (f gatedFile) Write(p []byte) (int, error) {
	f.g.appendHeld <- struct{}{}
	if err := <-f.g.tokens; err != nil {
		return 0, err
	}
	return f.File.Write(p)
}

// startGated opens a daemon over g and registers its teardown; the gate
// opens first, so no failure path can strand a job at it.
func startGated(t *testing.T, cfg Config, g *journalGateFS) (*Manager, *httptest.Server) {
	t.Helper()
	cfg.FS = g
	m, srv := startCoordinator(t, cfg)
	t.Cleanup(func() { _ = m.Close() })
	t.Cleanup(srv.Close)
	t.Cleanup(g.open)
	return m, srv
}

// openEvents starts a job's event stream and delivers its decoded
// events on the returned channel, which closes when the stream ends.
// The request runs in the background: the server sends its headers
// with the first event, and the caller may need to act before that.
func openEvents(t *testing.T, url, id string) <-chan JobEvent {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url+"/v1/jobs/"+id+"/events", nil)
	if err != nil {
		t.Fatal(err)
	}
	ch := make(chan JobEvent, 64)
	done := make(chan struct{})
	go func() {
		defer close(done)
		defer close(ch)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			if ctx.Err() == nil {
				t.Errorf("events stream: %v", err)
			}
			return
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("events stream answered %s", resp.Status)
			return
		}
		sc := bufio.NewScanner(resp.Body)
		for sc.Scan() {
			var e JobEvent
			if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
				t.Errorf("bad event line %q: %v", sc.Text(), err)
				return
			}
			ch <- e
		}
	}()
	t.Cleanup(func() {
		cancel()
		<-done
	})
	return ch
}

// nextEvent returns the stream's next event, failing the test if the
// stream ends or stalls first.
func nextEvent(t *testing.T, events <-chan JobEvent) JobEvent {
	t.Helper()
	select {
	case e, ok := <-events:
		if !ok {
			t.Fatal("event stream ended early")
		}
		return e
	case <-time.After(30 * time.Second):
		t.Fatal("event stream stalled")
	}
	return JobEvent{}
}

// wantState asserts the stream's next event is the terminal state.
func wantState(t *testing.T, events <-chan JobEvent, state State, reason string) {
	t.Helper()
	e := nextEvent(t, events)
	if e.Type != "state" || e.State != state || (reason != "" && e.Reason != reason) {
		t.Fatalf("event = %+v, want state %q (%q)", e, state, reason)
	}
}

// TestEventsWakeOnLocalCommit holds a local job's journal appends at a
// gate: the stream must emit point 0 once its append commits, while the
// job is still running with point 1 held — no state change wakes it,
// only the commit.
func TestEventsWakeOnLocalCommit(t *testing.T) {
	g := newJournalGateFS(true)
	m, srv := startGated(t, testConfig(t), g)
	// Eight points in about 10 ms, every one of them journaled.
	spec := JobSpec{Kind: KindFigure, Tenant: "ivan", Fig: 2, Seed: 41, Events: 300}.Normalized()
	plan, err := spec.Plan()
	if err != nil {
		t.Fatal(err)
	}
	st := mustSubmit(t, m, spec)

	g.awaitAppend(t) // point 0 is computed; its append is held
	reads := g.reads.Load()
	events := openEvents(t, srv.URL, st.ID)
	g.awaitReads(t, reads+1) // the stream has seen an empty journal
	g.tokens <- nil
	if e := nextEvent(t, events); e.Type != "point" || e.Point != 0 {
		t.Fatalf("first event = %+v, want point 0", e)
	}
	g.awaitAppend(t) // point 1 held: the job cannot have changed state
	if cur, _ := m.Status(st.ID); cur.State != StateRunning {
		t.Fatalf("job is %s, want running", cur.State)
	}

	g.open()
	for p := 1; p < plan.Points; p++ {
		if e := nextEvent(t, events); e.Type != "point" || e.Point != p {
			t.Fatalf("event = %+v, want point %d", e, p)
		}
	}
	wantState(t, events, StateDone, "")
}

// TestEventsWakeOnFailure fails a held journal append: the job fails
// and the waiting stream ends on the failed state.
func TestEventsWakeOnFailure(t *testing.T) {
	g := newJournalGateFS(true)
	m, srv := startGated(t, testConfig(t), g)
	st := mustSubmit(t, m, testMeasureSpec("judy", 43))

	g.awaitAppend(t)
	reads := g.reads.Load()
	events := openEvents(t, srv.URL, st.ID)
	g.awaitReads(t, reads+1)
	g.tokens <- errors.New("injected append failure")
	wantState(t, events, StateFailed, "")
}

// TestEventsWakeOnDrainEviction drains a daemon with a queued job (no
// worker pool, so it stays queued): the stream ends on the eviction.
func TestEventsWakeOnDrainEviction(t *testing.T) {
	g := newJournalGateFS(false)
	cfg := testConfig(t)
	cfg.FS = g
	m, err := open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = m.Close() })
	srv := httptest.NewServer(NewServer(m, 0).Handler())
	t.Cleanup(srv.Close)
	st := mustSubmit(t, m, testMeasureSpec("karl", 47))

	events := openEvents(t, srv.URL, st.ID)
	g.awaitReads(t, 1)
	m.Drain(context.Background())
	wantState(t, events, StateEvicted, "draining: re-queued on next start")
}

// TestEventsStreamIdleUntilIngest is the no-poll contract: while a
// distributed job makes no progress the stream does not re-read its
// journal; an ingested point wakes it to emit that point; Close ends it
// on the eviction.
func TestEventsStreamIdleUntilIngest(t *testing.T) {
	g := newJournalGateFS(false)
	m, srv := startGated(t, distConfig(t), g)
	st := mustSubmit(t, m, testFigureSpec("lena", 53))
	lease := claimLease(t, m, "w1") // the coordinator has opened the journal

	reads := g.reads.Load()
	events := openEvents(t, srv.URL, st.ID)
	g.awaitReads(t, reads+1)
	reads = g.reads.Load()
	time.Sleep(200 * time.Millisecond)
	if n := g.reads.Load() - reads; n != 0 {
		t.Fatalf("stream re-read the journal %d times while the job made no progress", n)
	}

	rec := checkpoint.NewRecord(lease.Sweep, lease.Points[0], lease.Spec.Seed, json.RawMessage(`{}`))
	if _, err := m.LeaseResult(ResultRequest{Worker: "w1", Fingerprint: lease.Fingerprint, Record: rec}); err != nil {
		t.Fatalf("LeaseResult: %v", err)
	}
	if e := nextEvent(t, events); e.Type != "point" || e.Point != lease.Points[0] {
		t.Fatalf("event = %+v, want point %d", e, lease.Points[0])
	}

	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	wantState(t, events, StateEvicted, "shutdown: checkpointed for restart")
}

// TestEventsStreamEndsOnRetentionEviction parks the stream inside its
// journal read, holding a "running" snapshot, while the job finishes and
// retention forgets it. The change channel the stream took with that
// snapshot is already closed, so the stream cannot sleep through it: it
// wakes and ends with "job no longer tracked".
func TestEventsStreamEndsOnRetentionEviction(t *testing.T) {
	g := newJournalGateFS(true)
	cfg := testConfig(t)
	cfg.RetainJobs = 1
	m, srv := startGated(t, cfg, g)
	st := mustSubmit(t, m, testMeasureSpec("mona", 59))

	g.awaitAppend(t)
	hold := &readHold{held: make(chan struct{}), release: make(chan struct{})}
	g.holdRead.Store(hold)
	events := openEvents(t, srv.URL, st.ID)
	select {
	case <-hold.held:
	case <-time.After(30 * time.Second):
		t.Fatal("stream never read the journal")
	}

	g.open()
	if fin := waitTerminal(t, m, st.ID); fin.State != StateDone {
		t.Fatalf("job ended %s (%s), want done", fin.State, fin.Reason)
	}
	_, forgotten, ok := m.Watch(st.ID)
	if !ok {
		t.Fatal("done job forgotten before retention ran")
	}
	mustSubmit(t, m, testMeasureSpec("mona", 61)) // over RetainJobs: forgets the done job
	select {
	case <-forgotten:
	default:
		t.Fatal("retention forgot the job without waking its watchers")
	}
	if _, _, ok := m.Watch(st.ID); ok {
		t.Fatal("job still tracked after retention")
	}

	close(hold.release)
	for {
		e := nextEvent(t, events)
		if e.Type == "point" {
			continue // the journal may outlive the job's done transition
		}
		if e.Type != "state" || e.State != StateEvicted || e.Reason != "job no longer tracked" {
			t.Fatalf("event = %+v, want the untracked-job eviction", e)
		}
		return
	}
}
