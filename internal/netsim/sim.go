package netsim

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"

	"repro/internal/geom"
	"repro/internal/mobility"
	"repro/internal/simrand"
	"repro/internal/space"
)

// ErrStopped is returned by Step and Run when the scenario's
// cooperative stop-check (Config.Stop) requested cancellation. The
// simulation halts on a tick boundary: no partial tick is ever
// observable, so tallies and topology stay consistent.
var ErrStopped = errors.New("netsim: simulation stopped by cooperative cancellation")

// csrAdj is an adjacency structure in compressed-sparse-row form: node
// i's sorted neighbor list is flat[off[i]:off[i+1]]. One flat buffer per
// topology snapshot keeps the per-tick rebuild allocation-free and the
// neighbor scans cache-linear.
type csrAdj struct {
	off  []int32 // len N+1
	flat []NodeID
}

// row returns node i's neighbor list, sorted ascending.
func (a *csrAdj) row(i NodeID) []NodeID { return a.flat[a.off[i]:a.off[i+1]] }

// Sim is the simulation engine. Construct with New, register protocols,
// then Start and Step (or Run). Sim is not safe for concurrent use.
type Sim struct {
	cfg    Config
	metric geom.Metric
	index  *space.Index
	model  mobility.Model
	rngMob *rand.Rand
	medium Medium      // nil = ideal medium
	stop   func() bool // nil = never cancelled

	// pop holds all node kinematic state in struct-of-arrays layout.
	// pop.Pos is shared with (retained by) the spatial index, so
	// mobility updates are visible to it without a copy pass.
	pop *mobility.Population

	// alive caches Medium.Alive for the current tick (the medium's
	// determinism contract fixes liveness between Advance calls), so the
	// hot paths index a []bool instead of calling through an interface.
	// nil when medium == nil.
	alive []bool

	adj     csrAdj // current topology
	prevAdj csrAdj // previous tick's topology
	// geo is the geometric adjacency the index certifies, and geoAlt its
	// double buffer; kept apart from adj only under a Medium, whose
	// liveness and cuts filter geo into adj every tick.
	geo, geoAlt csrAdj

	// Scratch reused every tick by the CSR patch and the medium filter.
	chgOff   []int32 // per-node offsets into chg, len N+1
	chg      []int32 // per-node flip lists: partner<<1 | up, ascending
	deg      []int32 // per-node degree this tick (medium filter)
	rowStart []int32 // filtered row's offset inside its tile arena; patch cursor
	patchSrc *csrAdj // the rows patchRange merges chg into
	patchDst *csrAdj
	arenas   [][]NodeID    // per-tile filtered rows (disjoint writers)
	tileEv   [][]LinkEvent // per-tile filtered-row events
	// filtered counts the rows filterRows rebuilt: all N on every call.
	filtered int64
	tiles    int // effective tile count, ≥ 1
	tileWG   sync.WaitGroup

	protocols []Protocol
	// batch[i] is protocols[i] as a BroadcastReceiver, nil when it only
	// takes per-receiver OnMessage calls; resolved once at Register.
	batch   []BroadcastReceiver
	started bool

	now     float64
	tick    int64
	tallies Tallies

	queue     []Message
	events    []LinkEvent
	delivered int64
	dropped   int64
	// attempts is the run-global delivery attempt counter handed to
	// Medium.Deliver as the draw coordinate. Without delay or duplication
	// it equals delivered+dropped, which keeps the fault-draw stream — and
	// therefore every existing loss/churn run — byte-identical.
	attempts int64
	// rcvBuf collects one broadcast's zero-delay receivers under a
	// Medium (duplicates repeat their receiver), so a drop or delay never
	// reaches the protocols. Sized for the worst case — every neighbor
	// of a node delivered twice — when the medium is installed, so the
	// drain never grows it. nil on the ideal medium, where a broadcast's
	// receivers are the sender's adjacency row itself.
	rcvBuf []NodeID
	// pending parks delayed deliveries until their due tick. Lazily
	// allocated on the first non-zero Fate.Delay, so media that never
	// delay cost nothing.
	pending *pendingQueue
	// stepBroadcasts counts accepted broadcasts within the current phase;
	// StepControlled resets it and folds it into StepReport.Active.
	stepBroadcasts int
	// inFrom→inTo is the OnMessage delivery drainQueue is making from
	// the sender's current row, so the pair is a link by construction and
	// IsNeighbor answers it without a search. −1 when no such delivery is
	// running (an OnBroadcast call, or a released delayed delivery, which
	// must search the adjacency as it is now).
	inFrom, inTo NodeID
}

var _ Env = (*Sim)(nil)

// New builds a simulator for the given scenario.
func New(cfg Config) (*Sim, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	metric, err := geom.NewMetric(cfg.Metric, cfg.Side)
	if err != nil {
		return nil, fmt.Errorf("netsim: %w", err)
	}
	src := simrand.New(cfg.Seed)
	pop, err := cfg.Model.Init(cfg.N, metric, src.Split("placement").Rand())
	if err != nil {
		return nil, fmt.Errorf("netsim: init mobility: %w", err)
	}
	index, err := space.NewIndex(metric, cfg.Range, pop.Pos)
	if err != nil {
		return nil, fmt.Errorf("netsim: %w", err)
	}
	tiles := cfg.Tiles
	if tiles < 1 {
		tiles = 1
	}
	if tiles > cfg.N {
		tiles = cfg.N
	}
	s := &Sim{
		cfg:      cfg,
		metric:   metric,
		index:    index,
		model:    cfg.Model,
		rngMob:   src.Split("mobility").Rand(),
		medium:   cfg.Medium,
		stop:     cfg.Stop,
		pop:      pop,
		adj:      csrAdj{off: make([]int32, cfg.N+1)},
		prevAdj:  csrAdj{off: make([]int32, cfg.N+1)},
		chgOff:   make([]int32, cfg.N+1),
		rowStart: make([]int32, cfg.N),
		tiles:    tiles,
		inFrom:   -1,
		inTo:     -1,
	}
	if pm, ok := cfg.Model.(mobility.Predictable); ok {
		index.UseKinematics(pm, pop, cfg.Dt)
	}
	if s.medium != nil {
		// Faults draw from a dedicated stream family: registering a
		// medium never perturbs placement or mobility draws.
		s.medium.Reset(cfg.N, src.Split("faults"))
		s.medium.Advance(0)
		s.alive = make([]bool, cfg.N)
		s.refreshAlive()
		s.rcvBuf = make([]NodeID, 0, 2*cfg.N)
		s.geo = csrAdj{off: make([]int32, cfg.N+1)}
		s.geoAlt = csrAdj{off: make([]int32, cfg.N+1)}
		s.deg = make([]int32, cfg.N)
		s.arenas = make([][]NodeID, tiles)
		s.tileEv = make([][]LinkEvent, tiles)
	}
	// Initial topology: the index's first Begin reports every link as an
	// up flip, which patches the empty adjacency into the full one. New
	// emits no events, and lets go of the scratch the initial burst
	// grew: steady-state ticks flip a few percent of the links.
	if s.medium == nil {
		s.patch(&s.prevAdj, &s.adj, s.index.Begin(0))
		s.adj, s.prevAdj = s.prevAdj, s.adj
	} else {
		s.updateTopology(s.index.Begin(0))
		s.events = nil
		clear(s.tileEv)
	}
	s.chg = nil
	return s, nil
}

// Register adds protocols in processing order. It must be called before
// Start.
func (s *Sim) Register(ps ...Protocol) error {
	if s.started {
		return fmt.Errorf("netsim: Register after Start")
	}
	s.protocols = append(s.protocols, ps...)
	for _, p := range ps {
		b, _ := p.(BroadcastReceiver)
		s.batch = append(s.batch, b)
	}
	return nil
}

// Start invokes every protocol's Start hook and delivers the messages
// they emit. It is idempotent; Step calls it implicitly if needed.
func (s *Sim) Start() error {
	if s.started {
		return nil
	}
	s.started = true
	for _, p := range s.protocols {
		if err := p.Start(s); err != nil {
			return fmt.Errorf("netsim: start %s: %w", p.Name(), err)
		}
	}
	return s.drainQueue()
}

// Step advances the simulation by one tick. When the scenario's
// stop-check requests cancellation, Step returns ErrStopped before any
// state advances.
func (s *Sim) Step() error {
	_, err := s.StepControlled(StepControl{RunPhase: true})
	return err
}

// StepControl lets a scheduling layer (the event-driven core) elide
// provably redundant work inside one tick. The zero value with RunPhase
// set reproduces Step exactly; every Skip flag is a caller-supplied
// certificate, not a request the engine validates.
type StepControl struct {
	// SkipMobility certifies that the mobility model's Step would leave
	// the population (positions, Wrapped flags, model scratch) and the
	// mobility RNG stream untouched this tick.
	SkipMobility bool
	// SkipTopo certifies that the adjacency is provably identical to the
	// previous tick's, so topology maintenance (and therefore the link
	// event diff) can be skipped wholesale.
	SkipTopo bool
	// RunPhase forces the protocol phase (pending releases, queue
	// drains, OnTick) even when nothing is scheduled. Regardless of its
	// value the engine promotes the phase itself whenever it is
	// observably required: link events fired, broadcasts are queued, or
	// parked deliveries come due this tick.
	RunPhase bool
}

// StepReport describes what one controlled step actually did, so the
// scheduling layer can decide what to re-arm.
type StepReport struct {
	// PhaseRan reports whether the protocol phase executed (requested or
	// engine-promoted). When false, no protocol hook ran this tick and
	// no message moved.
	PhaseRan bool
	// Events is the number of link events diffed this tick.
	Events int
	// Active reports observable activity: link events, broadcasts, or
	// point deliveries/drops. An active tick may have changed protocol
	// state at any point up to the final queue drain, so the scheduler
	// must run the next tick's phase unconditionally to let per-tick
	// hooks observe the settled state exactly as the tick engine would.
	Active bool
}

// StepControlled is Step with scheduling hints; see StepControl. It
// returns a report of the work performed.
func (s *Sim) StepControlled(ctl StepControl) (StepReport, error) {
	if s.stop != nil && s.stop() {
		return StepReport{}, ErrStopped
	}
	if !s.started {
		if err := s.Start(); err != nil {
			return StepReport{}, err
		}
	}
	s.tick++
	s.now = float64(s.tick) * s.cfg.Dt

	// 1. Mobility, then fault-state advancement (churn schedules). The
	// index shares pop.Pos, so mobility writes need no copy pass.
	if !ctl.SkipMobility {
		s.model.Step(s.pop, s.metric, s.cfg.Dt, s.rngMob)
	}
	if s.medium != nil {
		s.medium.Advance(s.tick)
		s.refreshAlive()
	}

	// 2. Topology maintenance. Begin re-checks only the pairs whose
	// certificates came due and returns those that flipped; the link
	// events are those flips, and the adjacency is patched from them.
	// No flips (the stationary fast path) leaves the adjacency as it is.
	// Certificates are keyed to ticks and drift budgets, not to calls,
	// so Begin stays sound across ticks a certificate skipped entirely.
	if ctl.SkipTopo {
		s.events = s.events[:0]
	} else {
		s.updateTopology(s.index.Begin(s.tick))
	}

	rep := StepReport{Events: len(s.events)}
	rep.PhaseRan = ctl.RunPhase || len(s.events) > 0 || len(s.queue) > 0 || s.pendingDue()
	if !rep.PhaseRan {
		return rep, nil
	}
	s.stepBroadcasts = 0
	movedBase := s.delivered + s.dropped

	// 3. Protocols observe link events.
	for _, ev := range s.events {
		if ev.Border {
			if ev.Up {
				s.tallies.BorderGen++
			} else {
				s.tallies.BorderBrk++
			}
		} else {
			if ev.Up {
				s.tallies.LinkGen++
			} else {
				s.tallies.LinkBrk++
			}
		}
		for _, p := range s.protocols {
			p.OnLinkEvent(ev)
		}
	}
	// 3.5. Delayed deliveries whose latency expires this tick reach their
	// receivers; responses they trigger drain with the link-event traffic.
	s.releasePending()
	if err := s.drainQueue(); err != nil {
		return rep, err
	}

	// 4. Per-tick protocol work (timers, periodic traffic).
	for _, p := range s.protocols {
		p.OnTick(s.now)
	}
	if err := s.drainQueue(); err != nil {
		return rep, err
	}
	rep.Active = len(s.events) > 0 || s.stepBroadcasts > 0 || s.delivered+s.dropped > movedBase
	return rep, nil
}

// pendingDue reports whether the pending queue holds entries (live or
// tombstoned) due at the current tick. Tombstoned entries count: the
// tick engine clears them via releasePending on their due tick, and the
// ring's bucket-reuse invariant relies on that clearing.
func (s *Sim) pendingDue() bool {
	if s.pending == nil {
		return false
	}
	return len(s.pending.buckets[s.tick%int64(len(s.pending.buckets))]) > 0
}

// PendingNextDue returns the earliest tick at which a parked delayed
// delivery comes due; ok is false when nothing is parked. The event
// core uses it to schedule the pending-release wake-up.
func (s *Sim) PendingNextDue() (tick int64, ok bool) {
	if s.pending == nil {
		return 0, false
	}
	l := int64(len(s.pending.buckets))
	for d := int64(1); d <= MaxDelayTicks; d++ {
		if len(s.pending.buckets[(s.tick+d)%l]) > 0 {
			return s.tick + d, true
		}
	}
	return 0, false
}

// Run advances the simulation by the given duration (rounded down to
// whole ticks).
func (s *Sim) Run(duration float64) error {
	steps := int(duration / s.cfg.Dt)
	for i := 0; i < steps; i++ {
		if err := s.Step(); err != nil {
			return err
		}
	}
	return nil
}

// Now implements Env.
func (s *Sim) Now() float64 { return s.now }

// NumNodes implements Env.
func (s *Sim) NumNodes() int { return s.cfg.N }

// Config returns the scenario the simulator was built with.
func (s *Sim) Config() Config { return s.cfg }

// Neighbors implements Env.
func (s *Sim) Neighbors(id NodeID) []NodeID { return s.adj.row(id) }

// Degree implements Env.
func (s *Sim) Degree(id NodeID) int { return int(s.adj.off[id+1] - s.adj.off[id]) }

// IsNeighbor implements Env with a binary search of a's row. Callers
// on the delivery path pass the sender as a: the pair drainQueue is
// delivering answers without a search, and any other pair searches a
// row the drain loop already has in cache.
func (s *Sim) IsNeighbor(a, b NodeID) bool {
	if a == s.inFrom && b == s.inTo {
		return true
	}
	_, ok := FindID(s.adj.row(a), b)
	return ok
}

// FindID binary-searches an ascending id list for id. It returns id's
// position, or the position where it would be inserted, and whether it
// is present. Hand-written rather than sort.Search or
// slices.BinarySearch: it runs once per delivery, where either costs
// measurably more.
func FindID(sorted []NodeID, id NodeID) (int, bool) {
	lo, hi := 0, len(sorted)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if sorted[mid] < id {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, lo < len(sorted) && sorted[lo] == id
}

// Position returns the current position of a node.
func (s *Sim) Position(id NodeID) geom.Vec2 { return s.pop.Pos[id] }

// Tallies returns a snapshot of all counters.
func (s *Sim) Tallies() Tallies { return s.tallies }

// Delivered returns the total number of successful point deliveries
// (message × receiving neighbor) so far; useful for medium diagnostics.
func (s *Sim) Delivered() int64 { return s.delivered }

// Dropped returns the total number of point deliveries the fault medium
// lost; always zero on the ideal medium.
func (s *Sim) Dropped() int64 { return s.dropped }

// MeanDegree returns the current average node degree.
func (s *Sim) MeanDegree() float64 {
	return float64(len(s.adj.flat)) / float64(s.cfg.N)
}

// IndexStats exposes the spatial index's work counters, for benchmarks
// and diagnostics. Under a Medium every row is rebuilt by the filter
// each tick, so RequeriedRows counts N per tick there.
func (s *Sim) IndexStats() space.IndexStats {
	st := s.index.Stats()
	if s.medium != nil {
		st.RequeriedRows = s.filtered
	}
	return st
}

// Tick returns the current tick number (0 before the first Step).
func (s *Sim) Tick() int64 { return s.tick }

// Population exposes the node kinematic state for read-only inspection.
// The event core's crossing predictor reads positions and model scratch
// (headings, epoch remainders) through it; mutating anything would break
// the engine's determinism.
func (s *Sim) Population() *mobility.Population { return s.pop }

// Broadcast implements Env. Messages with an out-of-range sender or an
// unknown kind indicate a protocol bug; they are dropped and counted in
// Tallies().Invalid so tests can assert none occurred. Broadcasts from a
// crashed node are suppressed entirely — a dead radio transmits nothing,
// so they neither enter the traffic tallies nor reach any neighbor.
func (s *Sim) Broadcast(msg Message) {
	if msg.From < 0 || int(msg.From) >= s.cfg.N {
		s.tallies.Invalid++
		return
	}
	idx := int(msg.Kind) - 1
	if idx < 0 || idx >= numMsgKinds {
		s.tallies.Invalid++
		return
	}
	if s.medium != nil && !s.alive[msg.From] {
		s.tallies.Suppressed++
		return
	}
	s.tallies.byKind[idx].Msgs++
	s.tallies.byKind[idx].Bits += msg.Bits
	if msg.Border {
		s.tallies.byKindBorder[idx].Msgs++
		s.tallies.byKindBorder[idx].Bits += msg.Bits
	}
	s.stepBroadcasts++
	s.queue = append(s.queue, msg)
}

// drainQueue delivers queued broadcasts in FIFO order until quiescence.
// Messages emitted by receive handlers are delivered within the same
// tick (ideal zero-delay medium). Each broadcast is delivered in three
// steps: work out its same-tick receivers (the sender's row, or under a
// Medium the row after every fate is applied), count them, then hand
// them to each protocol in registration order — in one OnBroadcast call
// for a BroadcastReceiver, one OnMessage call per receiver otherwise.
// The queue is consumed with a head index over one reusable buffer — no
// re-slicing that pins the backing array, no capacity discard — so
// steady-state drains are allocation free. A runaway protocol that
// floods without termination is cut off with an error.
func (s *Sim) drainQueue() error {
	// Legitimate protocols broadcast O(N) messages per tick (a full
	// cluster re-formation plus a table round is a few multiples of N);
	// anything far beyond that is a non-terminating flood.
	maxRounds := 200*s.cfg.N + 10_000
	head := 0
	for head < len(s.queue) {
		msg := s.queue[head] // copied before handlers can grow s.queue
		head++
		rcvs := s.adj.row(msg.From)
		if s.medium != nil {
			rcvs = s.applyFates(msg, rcvs)
		}
		// Float64 sums of integers far below 2^53: adding the count at
		// once is exact, so the tallies match per-delivery increments.
		s.delivered += int64(len(rcvs))
		s.tallies.Delivered += float64(len(rcvs))
		for i, p := range s.protocols {
			if b := s.batch[i]; b != nil {
				s.inFrom, s.inTo = -1, -1
				b.OnBroadcast(msg, rcvs)
				continue
			}
			for _, rcv := range rcvs {
				s.inFrom, s.inTo = msg.From, rcv
				p.OnMessage(rcv, msg)
			}
		}
		if head > maxRounds {
			s.queue = s.queue[:0]
			s.inFrom, s.inTo = -1, -1
			return fmt.Errorf("netsim: message storm: > %d broadcasts in one tick", maxRounds)
		}
	}
	s.queue = s.queue[:0]
	s.inFrom, s.inTo = -1, -1
	return nil
}

// applyFates draws the medium's fate for each delivery of msg over the
// sender's row, in row order, and returns the zero-delay receivers in
// rcvBuf. Drops are counted, positive delays are parked in the pending
// queue (evictions forced by the bounded per-receiver queue count in
// Tallies.Overflow), and a duplicate's zero-delay copy repeats its
// receiver. The draw order and the parking order are those of the
// per-delivery loop, so every run stays byte-identical to it.
func (s *Sim) applyFates(msg Message, row []NodeID) []NodeID {
	rcvs := s.rcvBuf[:0]
	for _, nb := range row {
		s.attempts++
		fate := s.medium.Deliver(s.attempts, msg.From, nb)
		if fate.Drop {
			s.dropped++
			s.tallies.Dropped++
			continue
		}
		rcvs = s.keepOrPark(rcvs, nb, msg, fate.Delay)
		if fate.Dup {
			s.tallies.Duplicated++
			rcvs = s.keepOrPark(rcvs, nb, msg, fate.DupDelay)
		}
	}
	s.rcvBuf = rcvs
	return rcvs
}

// deliver fires one released point delivery into the protocol stack,
// always through OnMessage.
func (s *Sim) deliver(rcv NodeID, msg Message) {
	s.delivered++
	s.tallies.Delivered++
	for _, p := range s.protocols {
		p.OnMessage(rcv, msg)
	}
}

// keepOrPark applies a non-drop fate: zero delay appends rcv to the
// broadcast's same-tick receivers, a positive delay (clamped to
// MaxDelayTicks) parks the delivery in the pending queue until
// tick+delay.
func (s *Sim) keepOrPark(rcvs []NodeID, rcv NodeID, msg Message, delay int32) []NodeID {
	if delay <= 0 {
		return append(rcvs, rcv)
	}
	d := int64(delay)
	if d > MaxDelayTicks {
		d = MaxDelayTicks
	}
	if s.pending == nil {
		limit := s.cfg.PendingLimit
		if limit == 0 {
			limit = DefaultPendingLimit
		}
		s.pending = newPendingQueue(s.cfg.N, limit)
	}
	if s.pending.add(s.tick, s.tick+d, rcv, msg) {
		s.tallies.Overflow++
	}
	return rcvs
}

// releasePending delivers every parked message whose due tick is now. A
// receiver whose radio died while the frame was in flight loses it (the
// delivery counts as Dropped); current adjacency is deliberately not
// re-checked — the frame was already on the air, which is exactly how
// delayed media feed protocols stale information. Handlers' response
// broadcasts queue as usual and drain right after.
func (s *Sim) releasePending() {
	if s.pending == nil {
		return
	}
	s.inFrom, s.inTo = -1, -1
	for _, p := range s.pending.take(s.tick) {
		if p.dead {
			continue
		}
		if !s.alive[p.rcv] {
			s.dropped++
			s.tallies.Dropped++
			continue
		}
		s.deliver(p.rcv, p.msg)
	}
}

// refreshAlive snapshots Medium.Alive into the per-tick cache. Liveness
// is constant between Advance calls (the medium determinism contract),
// so one pass per tick replaces every interface call on the hot paths.
func (s *Sim) refreshAlive() {
	for i := range s.alive {
		s.alive[i] = s.medium.Alive(NodeID(i))
	}
}

// updateTopology brings the adjacency to this tick's state from the
// index's flips (ascending by (A, B)) and sets s.events. On the ideal
// medium the flips are the link events and patch adj directly. Under a
// Medium they patch the geometric adjacency, which filterRows then
// filters into adj, emitting the events of the filtered adjacency.
func (s *Sim) updateTopology(flips []space.Flip) {
	s.events = s.events[:0]
	if s.medium == nil {
		if len(flips) == 0 {
			return
		}
		for _, f := range flips {
			s.events = append(s.events, s.makeEvent(NodeID(f.A), NodeID(f.B), f.Up))
		}
		s.patch(&s.prevAdj, &s.adj, flips)
		s.adj, s.prevAdj = s.prevAdj, s.adj
		return
	}
	if len(flips) > 0 {
		s.patch(&s.geoAlt, &s.geo, flips)
		s.geo, s.geoAlt = s.geoAlt, s.geo
	}
	s.adj, s.prevAdj = s.prevAdj, s.adj
	s.filterRows()
}

// patch sets dst to src with the flips applied. The flips are scattered
// into per-node lists (chg), which come out ascending by partner: a
// node x gains its partners below x from flips (a, x) in ascending a,
// then those above from flips (x, b) in ascending b. The degree
// prefix-sum is serial; the row merge runs per tile.
func (s *Sim) patch(dst, src *csrAdj, flips []space.Flip) {
	n := s.cfg.N
	co := s.chgOff
	clear(co)
	for _, f := range flips {
		co[f.A+1]++
		co[f.B+1]++
	}
	for i := 0; i < n; i++ {
		co[i+1] += co[i]
	}
	cur := s.rowStart
	copy(cur, co[:n])
	if cap(s.chg) < 2*len(flips) {
		s.chg = make([]int32, 2*len(flips), 2*len(flips)+len(flips)/2+16)
	}
	s.chg = s.chg[:2*len(flips)]
	for _, f := range flips {
		up := int32(0)
		if f.Up {
			up = 1
		}
		s.chg[cur[f.A]] = f.B<<1 | up
		cur[f.A]++
		s.chg[cur[f.B]] = f.A<<1 | up
		cur[f.B]++
	}
	off := dst.off
	off[0] = 0
	for i := 0; i < n; i++ {
		d := src.off[i+1] - src.off[i]
		for _, c := range s.chg[co[i]:co[i+1]] {
			d += 2*(c&1) - 1
		}
		off[i+1] = off[i] + d
	}
	e := int(off[n])
	if cap(dst.flat) < e {
		dst.flat = make([]NodeID, e, e+e/4)
	}
	dst.flat = dst.flat[:e]
	s.patchSrc, s.patchDst = src, dst
	if s.tiles == 1 {
		s.patchRange(0, n)
	} else {
		s.runTiled(phasePatch)
	}
}

// patchRange merges rows [lo, hi) of patchSrc with their flip lists into
// patchDst; rows without flips are copied verbatim.
func (s *Sim) patchRange(lo, hi int) {
	src, dst := s.patchSrc, s.patchDst
	co := s.chgOff
	for i := lo; i < hi; i++ {
		if co[i] == co[i+1] {
			// A run of rows without flips keeps its degrees, so it
			// copies over in one block.
			k := i + 1
			for k < hi && co[k] == co[k+1] {
				k++
			}
			copy(dst.flat[dst.off[i]:dst.off[k]], src.flat[src.off[i]:src.off[k]])
			i = k - 1
			continue
		}
		d := dst.flat[dst.off[i]:dst.off[i+1]]
		old := src.row(NodeID(i))
		c := s.chg[co[i]:co[i+1]]
		k, oi := 0, 0
		for _, e := range c {
			// Copy the run of old entries below j, then apply the flip.
			at, _ := FindID(old[oi:], NodeID(e>>1))
			k += copy(d[k:], old[oi:oi+at])
			oi += at
			if e&1 == 1 {
				d[k] = NodeID(e >> 1)
				k++
			} else {
				oi++ // old[oi] == j: the link broke
			}
		}
		copy(d[k:], old[oi:])
	}
}

// filterRows rebuilds adj as geo filtered by the medium (a dead node
// has no links, a cut severs its pair) and sets s.events to the changes
// against prevAdj. Three phases: filter (per tile: rows land in per-tile
// arenas, each row's events in the tile's event list), prefix-sum
// (serial), fill (per tile). Tiles are ascending node ranges, so their
// event lists concatenate in ascending (A, B) order.
func (s *Sim) filterRows() {
	n := s.cfg.N
	if s.tiles == 1 {
		s.filterRange(0, 0, n)
	} else {
		s.runTiled(phaseFilter)
	}
	off := s.adj.off
	off[0] = 0
	for i := 0; i < n; i++ {
		off[i+1] = off[i] + s.deg[i]
	}
	e := int(off[n])
	if cap(s.adj.flat) < e {
		s.adj.flat = make([]NodeID, e, e+e/4)
	}
	s.adj.flat = s.adj.flat[:e]
	if s.tiles == 1 {
		s.fillRange(0, 0, n)
	} else {
		s.runTiled(phaseFill)
	}
	for _, ev := range s.tileEv {
		s.events = append(s.events, ev...)
	}
	s.filtered += int64(n)
}

// filterRange runs the filter phase for rows [lo, hi) into tile t's
// arena and event list.
func (s *Sim) filterRange(t, lo, hi int) {
	arena := s.arenas[t][:0]
	evs := s.tileEv[t][:0]
	for i := lo; i < hi; i++ {
		start := len(arena)
		id := NodeID(i)
		if s.alive[i] {
			for _, j := range s.geo.row(id) {
				if s.alive[j] && !s.medium.Cut(id, j) {
					arena = append(arena, j)
				}
			}
		}
		s.rowStart[i] = int32(start)
		s.deg[i] = int32(len(arena) - start)
		evs = s.rowEvents(evs, id, s.prevAdj.row(id), arena[start:])
	}
	s.arenas[t] = arena
	s.tileEv[t] = evs
}

// rowEvents appends the events of row i's change from oldL to newL,
// both ascending: one per partner j > i whose membership differs, in
// ascending j, so each unordered pair yields one event.
func (s *Sim) rowEvents(evs []LinkEvent, i NodeID, oldL, newL []NodeID) []LinkEvent {
	oi, ni := 0, 0
	for oi < len(oldL) || ni < len(newL) {
		switch {
		case oi >= len(oldL) || (ni < len(newL) && newL[ni] < oldL[oi]):
			if j := newL[ni]; j > i {
				evs = append(evs, s.makeEvent(i, j, true))
			}
			ni++
		case ni >= len(newL) || oldL[oi] < newL[ni]:
			if j := oldL[oi]; j > i {
				evs = append(evs, s.makeEvent(i, j, false))
			}
			oi++
		default:
			oi++
			ni++
		}
	}
	return evs
}

// fillRange copies the filtered rows [lo, hi) out of tile t's arena.
func (s *Sim) fillRange(t, lo, hi int) {
	for i := lo; i < hi; i++ {
		dst := s.adj.flat[s.adj.off[i]:s.adj.off[i+1]]
		copy(dst, s.arenas[t][s.rowStart[i]:])
	}
}

func (s *Sim) makeEvent(a, b NodeID, up bool) LinkEvent {
	return LinkEvent{
		A:      a,
		B:      b,
		Up:     up,
		Border: s.pop.Wrapped[a] || s.pop.Wrapped[b],
		Time:   s.now,
	}
}
