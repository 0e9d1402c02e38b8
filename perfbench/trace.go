package main

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/eventsim"
	"repro/internal/experiments"
	"repro/internal/geom"
	"repro/internal/mobility"
	"repro/internal/netsim"
	"repro/internal/routing"
	"repro/internal/space"
)

// The traced run times the calls into each simulation layer from outside
// the program: it replays a measurement through the same public
// constructors experiments.MeasureRates uses, with every protocol and the
// mobility model wrapped. Timing every delivery would distort the run it
// measures (time.Now on each OnMessage made an N=400 point 4× slower), so
// every call is counted but only every sampleEvery-th OnMessage is timed;
// the per-tick hooks are few and are all timed.
const sampleEvery = 64

// clock accumulates the calls into one hook and the time of those timed.
type clock struct {
	calls, timed int64
	nanos        time.Duration
}

func (c *clock) add(d time.Duration) {
	c.timed++
	c.nanos += d
}

// estimate scales the timed calls up to all calls, less the clock's own
// cost in each timed call.
func (c clock) estimate() time.Duration {
	if c.timed == 0 {
		return 0
	}
	per := float64(c.nanos)/float64(c.timed) - float64(timerCost)
	return time.Duration(max(per, 0) * float64(c.calls))
}

// timerCost is what one timed section costs when it times nothing; the
// hooks timed are often not much slower, so it is measured once and
// subtracted.
var timerCost time.Duration

func calibrateTimer() {
	if timerCost > 0 {
		return
	}
	const n = 1 << 16
	var total time.Duration
	for i := 0; i < n; i++ {
		s := time.Now()
		total += time.Since(s)
	}
	timerCost = total / n
}

// tracedProto wraps one protocol. It must not change what the engine
// sees: tracedWaker forwards netsim.Waker exactly when the inner
// protocol implements it, or the event core would run another schedule.
type tracedProto struct {
	inner      netsim.Protocol
	msg, hooks clock
}

type tracedWaker struct {
	*tracedProto
	w netsim.Waker
}

func (t tracedWaker) NextWake(now float64) float64 { return t.w.NextWake(now) }

func traceProtocol(p netsim.Protocol) (netsim.Protocol, *tracedProto) {
	t := &tracedProto{inner: p}
	if w, ok := p.(netsim.Waker); ok {
		return tracedWaker{t, w}, t
	}
	return t, t
}

func (t *tracedProto) Name() string               { return t.inner.Name() }
func (t *tracedProto) Start(env netsim.Env) error { return t.inner.Start(env) }

func (t *tracedProto) OnLinkEvent(ev netsim.LinkEvent) {
	t.hooks.calls++
	s := time.Now()
	t.inner.OnLinkEvent(ev)
	t.hooks.add(time.Since(s))
}

func (t *tracedProto) OnMessage(rcv netsim.NodeID, msg netsim.Message) {
	t.msg.calls++
	if t.msg.calls%sampleEvery != 0 {
		t.inner.OnMessage(rcv, msg)
		return
	}
	s := time.Now()
	t.inner.OnMessage(rcv, msg)
	t.msg.add(time.Since(s))
}

func (t *tracedProto) OnTick(now float64) {
	t.hooks.calls++
	s := time.Now()
	t.inner.OnTick(now)
	t.hooks.add(time.Since(s))
}

func (t *tracedProto) calls() int64        { return t.msg.calls + t.hooks.calls }
func (t *tracedProto) busy() time.Duration { return t.msg.estimate() + t.hooks.estimate() }

// tracedModel times every mobility Step; tracedPredictable forwards
// mobility.Predictable, which the event core's topology certificates need.
type tracedModel struct {
	inner mobility.Model
	step  clock
}

type tracedPredictable struct {
	*tracedModel
	p mobility.Predictable
}

func traceModel(m mobility.Model) (mobility.Model, *tracedModel) {
	t := &tracedModel{inner: m}
	if p, ok := m.(mobility.Predictable); ok {
		return tracedPredictable{t, p}, t
	}
	return t, t
}

func (t *tracedModel) Name() string { return t.inner.Name() }
func (t *tracedModel) Init(n int, metric geom.Metric, rng *rand.Rand) (*mobility.Population, error) {
	return t.inner.Init(n, metric, rng)
}

func (t *tracedModel) Step(p *mobility.Population, metric geom.Metric, dt float64, rng *rand.Rand) {
	t.step.calls++
	s := time.Now()
	t.inner.Step(p, metric, dt, rng)
	t.step.add(time.Since(s))
}

func (t tracedPredictable) SpeedBound() float64 { return t.p.SpeedBound() }
func (t tracedPredictable) WrapsBorders() bool  { return t.p.WrapsBorders() }
func (t tracedPredictable) FillKinematics(p *mobility.Population, vel []geom.Vec2, hold []float64) bool {
	return t.p.FillKinematics(p, vel, hold)
}

// engine is the surface the replay drives; *netsim.Sim and *eventsim.Sim
// both provide it.
type engine interface {
	Register(ps ...netsim.Protocol) error
	Step() error
	Tallies() netsim.Tallies
	MeanDegree() float64
	IndexStats() space.IndexStats
}

// replayed is one replayed measurement: its result, the engine's own
// counters, and — when traced — the time spent in each layer.
type replayed struct {
	meas    experiments.Measured
	tallies netsim.Tallies
	index   space.IndexStats
	events  eventsim.Stats // zero on the tick core
	ticks   int64
	wall    time.Duration

	// Traced replays only.
	step                 time.Duration
	mob                  *tracedModel
	hello, clust, hybrid *tracedProto
}

// replay re-runs experiments.MeasureRates(net, opts) step by step. It
// supports the scenarios the benchmark measures (epoch-RWP mobility,
// moving nodes, border events excluded); the benchmark checks that it
// reproduces MeasureRates bit for bit.
func replay(net core.Network, opts experiments.Options, traced bool) (replayed, error) {
	if opts.Mobility != experiments.MobilityEpochRWP || net.V <= 0 || opts.IncludeBorder {
		return replayed{}, fmt.Errorf("replay: unsupported scenario")
	}
	start := time.Now()
	var r replayed
	var model mobility.Model = mobility.EpochRWP{Speed: net.V, Epoch: opts.EpochFrac * net.Side() / math.Max(net.V, 1e-9)}
	if traced {
		calibrateTimer()
		model, r.mob = traceModel(model)
	}
	dt := net.R * opts.StepFrac / net.V
	duration := math.Min(opts.TargetEvents/(float64(net.N)*net.LinkChangeRate()/2), opts.MaxDuration)
	cfg := netsim.Config{
		N: net.N, Side: net.Side(), Range: net.R,
		Metric: opts.Metric, Model: model, Dt: dt, Seed: opts.Seed, Core: opts.Core,
	}
	var sim engine
	var ev *eventsim.Sim
	var err error
	if opts.Core == netsim.CoreEvent {
		ev, err = eventsim.New(cfg)
		sim = ev
	} else {
		sim, err = netsim.New(cfg)
	}
	if err != nil {
		return r, err
	}
	maint, err := cluster.NewMaintainer(opts.Policy, core.DefaultMessageSizes.Cluster)
	if err != nil {
		return r, err
	}
	hello, err := routing.NewHello(core.DefaultMessageSizes.Hello)
	if err != nil {
		return r, err
	}
	hybrid, err := routing.NewHybrid(maint, routing.Sizes{
		Entry:     core.DefaultMessageSizes.RouteEntry,
		Discovery: routing.DefaultSizes.Discovery,
		Data:      routing.DefaultSizes.Data,
	})
	if err != nil {
		return r, err
	}
	protos := []netsim.Protocol{hello, maint, hybrid}
	if traced {
		protos[0], r.hello = traceProtocol(hello)
		protos[1], r.clust = traceProtocol(maint)
		protos[2], r.hybrid = traceProtocol(hybrid)
	}
	if err := sim.Register(protos...); err != nil {
		return r, err
	}

	stepOnce := func() error {
		r.ticks++
		if !traced {
			return sim.Step()
		}
		s := time.Now()
		err := sim.Step()
		r.step += time.Since(s)
		return err
	}
	for i := int(duration * opts.WarmupFrac / dt); i > 0; i-- {
		if err := stepOnce(); err != nil {
			return r, err
		}
	}
	base := sim.Tallies()
	var degSum, ratioSum float64
	samples := 0
	steps := int(duration / dt)
	sampleEvery := steps/200 + 1
	for i := 0; i < steps; i++ {
		if err := stepOnce(); err != nil {
			return r, err
		}
		if i%sampleEvery == 0 {
			degSum += sim.MeanDegree()
			ratioSum += maint.HeadRatio()
			samples++
		}
	}
	r.tallies = sim.Tallies()
	r.index = sim.IndexStats()
	if ev != nil {
		r.events = ev.Stats()
	}
	w := r.tallies.Sub(base)
	perNode := 1 / (float64(net.N) * duration)
	r.meas = experiments.Measured{
		FHello:         w.NonBorderOf(netsim.MsgHello).Msgs * perNode,
		FCluster:       w.NonBorderOf(netsim.MsgCluster).Msgs * perNode,
		FRoute:         w.NonBorderOf(netsim.MsgRoute).Msgs * perNode,
		LinkChangeRate: 2 * (w.LinkGen + w.LinkBrk) * perNode,
		LinkGenRate:    2 * w.LinkGen * perNode,
		HeadRatio:      ratioSum / float64(samples),
		MeanDegree:     degSum / float64(samples),
		Duration:       duration,
	}
	r.wall = time.Since(start)
	return r, nil
}

// simLayers sums traced replays into the per-layer figures of the
// simulation workloads.
type simLayers struct {
	ticks                           int64
	step, mob, hello, clust, hybrid time.Duration
	helloCalls                      int64
	delivered, linkEvents           float64
	routeMsgs, clusterMsgs          float64
	requeried, indexRows            int64
	evTicks, skippedTopo, skippedPh int64
}

func (l *simLayers) add(r replayed, n int) {
	l.ticks += r.ticks
	l.step += r.step
	l.mob += r.mob.step.estimate()
	l.hello += r.hello.busy()
	l.clust += r.clust.busy()
	l.hybrid += r.hybrid.busy()
	l.helloCalls += r.hello.calls()
	t := r.tallies
	l.delivered += t.Delivered
	l.linkEvents += t.LinkGen + t.LinkBrk + t.BorderGen + t.BorderBrk
	l.routeMsgs += t.Of(netsim.MsgRoute).Msgs
	l.clusterMsgs += t.Of(netsim.MsgCluster).Msgs
	l.requeried += r.index.RequeriedRows
	l.indexRows += r.index.Ticks * int64(n)
	l.evTicks += r.events.Ticks
	l.skippedTopo += r.events.SkippedTopo
	l.skippedPh += r.events.SkippedPhases
}

func (l simLayers) metrics(m map[string]float64) {
	ticks := float64(l.ticks)
	step := float64(l.step)
	share := func(d time.Duration) float64 { return float64(d) / step }
	m["netsim.step_ns"] = step / ticks
	m["netsim.self_share"] = share(l.step - l.mob - l.hello - l.clust - l.hybrid)
	m["netsim.deliveries_per_tick"] = l.delivered / ticks
	m["netsim.link_events_per_tick"] = l.linkEvents / ticks
	m["space.requery_frac"] = float64(l.requeried) / float64(l.indexRows)
	m["mobility.share"] = share(l.mob)
	m["routing.hello.share"] = share(l.hello)
	m["routing.hello.calls"] = float64(l.helloCalls)
	m["routing.hybrid.share"] = share(l.hybrid)
	m["routing.route_msgs_per_tick"] = l.routeMsgs / ticks
	m["cluster.share"] = share(l.clust)
	m["cluster.msgs_per_tick"] = l.clusterMsgs / ticks
	if l.evTicks > 0 {
		m["eventsim.topo_skip_frac"] = float64(l.skippedTopo) / float64(l.evTicks)
		m["eventsim.phase_skip_frac"] = float64(l.skippedPh) / float64(l.evTicks)
	}
}
