package eventsim

import (
	"math"

	"repro/internal/geom"
	"repro/internal/mobility"
	"repro/internal/netsim"
	"repro/internal/space"
)

// Stats counts what the event core actually did versus what the tick
// engine would have paid for, for coverage assertions and benchmarks.
type Stats struct {
	// Ticks is the number of Steps taken.
	Ticks int64
	// TopoEvals and SkippedTopo partition Ticks by whether topology
	// maintenance ran.
	TopoEvals, SkippedTopo int64
	// PhaseRuns and SkippedPhases partition Ticks by whether the
	// protocol phase ran.
	PhaseRuns, SkippedPhases int64
	// TimerWakes counts phases initiated by a Waker schedule.
	TimerWakes int64
	// ForcedPhases counts phases forced by the previous tick's activity.
	ForcedPhases int64
	// PendingWakes counts phases initiated by a pending-delivery due
	// tick.
	PendingWakes int64
	// Noops counts injected no-op events that fired.
	Noops int64
}

// Sim is the event-driven engine. It embeds a tick engine (netsim.Sim)
// and presents the same construction, protocol and measurement surface;
// see the package comment for the execution model. Construct with New,
// Register protocols, then Step or Run. Not safe for concurrent use.
type Sim struct {
	base *netsim.Sim
	cfg  netsim.Config
	dt   float64

	q      *Queue
	topo   *Event // next mandatory topology evaluation
	wake   *Event // next protocol timer wake (min over Wakers)
	pend   *Event // next pending-delivery due tick
	force  *Event // mandatory full phase after an active tick
	pred   *predictor
	wakers []netsim.Waker

	// staticMob certifies that mobility Steps are no-ops: the model is
	// exactly mobility.Static, whose Step draws no randomness and only
	// clears already-false Wrapped flags.
	staticMob bool
	// alwaysPhase is set when any registered protocol does not implement
	// Waker: its OnTick cannot be certified idle, so every tick runs the
	// full phase.
	alwaysPhase bool
	// primed flips after the first Step: the first tick always runs in
	// full to observe the post-Start state and arm the schedule.
	primed bool

	// zeroStreak and predHold implement predictor backoff. The safety
	// scan costs a few topology rebuilds' worth of work per evaluation;
	// in dense or fast scenarios some pair is always about to cross, the
	// certificate keeps coming back zero and the scan is pure overhead.
	// After three consecutive zero certificates the predictor is benched
	// for an exponentially growing window (capped at 64 ticks) during
	// which topology simply runs every tick — always sound, never
	// skipped without a certificate — bounding the adversarial-case
	// overhead at a few percent. Scenarios whose zeros are sporadic
	// (interleaved with useful certificates) never reach the threshold
	// and keep their skips.
	zeroStreak int
	predHold   int64

	stats Stats
}

// New builds an event-driven simulator for the given scenario. Any
// Config accepted by netsim.New is accepted here; scenarios the
// predictor has no certificate for (group/AR(1) mobility, fault media)
// simply run without the topology fast path.
func New(cfg netsim.Config) (*Sim, error) {
	base, err := netsim.New(cfg)
	if err != nil {
		return nil, err
	}
	// Mirror the base engine's defaulting so the model/metric the
	// scheduler reasons about is the one the engine actually runs.
	model := cfg.Model
	if model == nil {
		model = mobility.Static{}
	}
	kind := cfg.Metric
	if kind == 0 {
		kind = geom.MetricSquare
	}
	s := &Sim{
		base: base,
		cfg:  base.Config(),
		dt:   cfg.Dt,
		q:    NewQueue(),
	}
	if _, ok := model.(mobility.Static); ok {
		s.staticMob = true
	}
	if pm, ok := model.(mobility.Predictable); ok && cfg.Medium == nil {
		metric, err := geom.NewMetric(kind, cfg.Side)
		if err != nil {
			return nil, err
		}
		pred, err := newPredictor(pm, base.Population(), metric, cfg.Range, cfg.Dt)
		if err != nil {
			return nil, err
		}
		s.pred = pred
	}
	return s, nil
}

// Register adds protocols in processing order; see netsim.Sim.Register.
// Protocols that implement netsim.Waker let the core skip their OnTick
// on certified-idle ticks; any protocol that does not forces the full
// phase every tick.
func (s *Sim) Register(ps ...netsim.Protocol) error {
	if err := s.base.Register(ps...); err != nil {
		return err
	}
	for _, p := range ps {
		if w, ok := p.(netsim.Waker); ok {
			s.wakers = append(s.wakers, w)
		} else {
			s.alwaysPhase = true
		}
	}
	return nil
}

// Start invokes every protocol's Start hook; see netsim.Sim.Start.
func (s *Sim) Start() error { return s.base.Start() }

// Step advances the simulation by one tick, running only the work the
// event schedule proves necessary. The observable result is identical
// to netsim.Sim.Step.
func (s *Sim) Step() error {
	cur := s.base.Tick() + 1

	var topoDue, pendDue, wakeDue, forceDue, noopDue bool
	for {
		ev := s.q.Peek()
		if ev == nil || ev.Tick > cur {
			break
		}
		s.q.Pop()
		switch ev.Lane {
		case LaneTopo:
			topoDue = true
		case LanePending:
			pendDue = true
		case LaneWake:
			wakeDue = true
		case LaneForce:
			forceDue = true
		case LaneNoop:
			noopDue = true
			s.stats.Noops++
		}
	}

	ctl := netsim.StepControl{
		SkipMobility: s.staticMob,
		SkipTopo:     s.pred != nil && s.primed && !topoDue && !noopDue,
		RunPhase:     s.alwaysPhase || wakeDue || forceDue || pendDue || noopDue || !s.primed,
	}
	rep, err := s.base.StepControlled(ctl)
	if err != nil {
		return err
	}

	s.stats.Ticks++
	if ctl.SkipTopo {
		s.stats.SkippedTopo++
	} else {
		s.stats.TopoEvals++
	}
	if rep.PhaseRan {
		s.stats.PhaseRuns++
		if wakeDue {
			s.stats.TimerWakes++
		}
		if forceDue {
			s.stats.ForcedPhases++
		}
		if pendDue {
			s.stats.PendingWakes++
		}
	} else {
		s.stats.SkippedPhases++
	}

	if !ctl.SkipTopo && s.pred != nil {
		if cur >= s.predHold {
			safe := s.pred.SafeTicks()
			if safe == 0 {
				s.zeroStreak++
				if s.zeroStreak >= 3 {
					shift := s.zeroStreak - 2
					if shift > 6 {
						shift = 6
					}
					s.predHold = cur + int64(1)<<uint(shift)
				}
			} else {
				s.zeroStreak = 0
			}
			s.rearm(&s.topo, LaneTopo, cur+1+safe)
		} else {
			// Predictor benched: no certificate, so topology is due
			// again next tick.
			s.rearm(&s.topo, LaneTopo, cur+1)
		}
	}
	if rep.PhaseRan {
		// Protocol and pending state can only have changed inside a
		// phase; re-query the schedules.
		s.rearmWake(cur)
		s.rearmPending()
	}
	if rep.Active {
		// Observable activity (link events, broadcasts, deliveries) may
		// have changed protocol state as late as the final queue drain;
		// the next tick runs a full phase so per-tick hooks observe the
		// settled state exactly when the tick engine's would.
		s.rearm(&s.force, LaneForce, cur+1)
	}
	s.primed = true
	return nil
}

// rearm schedules (or reschedules) the singleton event in *slot.
func (s *Sim) rearm(slot **Event, lane Lane, tick int64) {
	if *slot == nil {
		*slot = s.q.Push(tick, lane)
		return
	}
	s.q.Reschedule(*slot, tick)
}

// rearmWake converts the earliest Waker time into a wake tick. Waking
// early is a harmless no-op phase; waking late would diverge from the
// tick engine, so the conversion rounds toward earlier ticks before
// clamping to the next tick.
func (s *Sim) rearmWake(cur int64) {
	next := math.Inf(1)
	for _, w := range s.wakers {
		if t := w.NextWake(s.base.Now()); t < next {
			next = t
		}
	}
	if math.IsInf(next, 1) {
		if s.wake != nil {
			s.q.Cancel(s.wake)
		}
		return
	}
	tick := int64(math.Ceil((next / s.dt) * (1 - 1e-9)))
	if tick < cur+1 {
		tick = cur + 1
	}
	s.rearm(&s.wake, LaneWake, tick)
}

// rearmPending tracks the engine's earliest parked-delivery due tick.
func (s *Sim) rearmPending() {
	due, ok := s.base.PendingNextDue()
	if !ok {
		if s.pend != nil {
			s.q.Cancel(s.pend)
		}
		return
	}
	s.rearm(&s.pend, LanePending, due)
}

// Run advances the simulation by the given duration (rounded down to
// whole ticks), mirroring netsim.Sim.Run.
func (s *Sim) Run(duration float64) error {
	steps := int(duration / s.dt)
	for i := 0; i < steps; i++ {
		if err := s.Step(); err != nil {
			return err
		}
	}
	return nil
}

// InjectNoop schedules a no-op event at the given tick (which must be
// in the future). It forces both a topology evaluation and a full
// protocol phase at that tick — the maximum perturbation of the
// schedule — and must not change any observable stream; the metamorphic
// tests rely on exactly that.
func (s *Sim) InjectNoop(tick int64) { s.q.Push(tick, LaneNoop) }

// Stats returns the core's execution counters.
func (s *Sim) Stats() Stats { return s.stats }

// QueueLen returns the number of scheduled events, for diagnostics.
func (s *Sim) QueueLen() int { return s.q.Len() }

// The measurement surface delegates to the embedded tick engine, which
// owns all observable state.

// Now implements netsim.Env.
func (s *Sim) Now() float64 { return s.base.Now() }

// NumNodes implements netsim.Env.
func (s *Sim) NumNodes() int { return s.base.NumNodes() }

// Neighbors implements netsim.Env.
func (s *Sim) Neighbors(id netsim.NodeID) []netsim.NodeID { return s.base.Neighbors(id) }

// IsNeighbor implements netsim.Env.
func (s *Sim) IsNeighbor(a, b netsim.NodeID) bool { return s.base.IsNeighbor(a, b) }

// Degree implements netsim.Env.
func (s *Sim) Degree(id netsim.NodeID) int { return s.base.Degree(id) }

// Broadcast implements netsim.Env.
func (s *Sim) Broadcast(msg netsim.Message) { s.base.Broadcast(msg) }

// Config returns the scenario the simulator was built with.
func (s *Sim) Config() netsim.Config { return s.cfg }

// Position returns the current position of a node.
func (s *Sim) Position(id netsim.NodeID) geom.Vec2 { return s.base.Position(id) }

// Tallies returns a snapshot of all counters.
func (s *Sim) Tallies() netsim.Tallies { return s.base.Tallies() }

// Delivered returns the total number of successful point deliveries.
func (s *Sim) Delivered() int64 { return s.base.Delivered() }

// Dropped returns the total number of point deliveries the medium lost.
func (s *Sim) Dropped() int64 { return s.base.Dropped() }

// MeanDegree returns the current average node degree.
func (s *Sim) MeanDegree() float64 { return s.base.MeanDegree() }

// IndexStats exposes the spatial index's work counters.
func (s *Sim) IndexStats() space.IndexStats { return s.base.IndexStats() }
