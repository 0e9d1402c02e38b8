package netsim_test

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/faults"
	"repro/internal/geom"
	"repro/internal/mobility"
	"repro/internal/netsim"
)

// jumpy is EpochRWP (wrapping on the square metric, so border wraps are
// teleports) with two kinds of extra motion: every 11th tick one node in
// six teleports to a uniform position, and every 13th tick every node
// takes an extra step of a tenth of the radius: with the epoch step, 0.2
// in all, just under the half cell (0.217 at this radius and side) above
// which the index treats a step as a teleport, so many nodes change
// cells at once. Not Predictable: the index certifies its pairs with the
// drift tier.
type jumpy struct {
	inner mobility.EpochRWP
	r     float64
	tick  int
}

func (m *jumpy) Name() string { return "jumpy" }
func (m *jumpy) Init(n int, metric geom.Metric, rng *rand.Rand) (*mobility.Population, error) {
	return m.inner.Init(n, metric, rng)
}
func (m *jumpy) Step(p *mobility.Population, metric geom.Metric, dt float64, rng *rand.Rand) {
	m.inner.Step(p, metric, dt, rng)
	m.tick++
	side := metric.Side()
	if m.tick%11 == 0 {
		for i := 0; i < p.Len(); i += 6 {
			p.Pos[i] = geom.Vec2{X: rng.Float64() * side, Y: rng.Float64() * side}
		}
	}
	if m.tick%13 == 0 {
		for i := range p.Pos {
			p.Pos[i], _ = metric.Wrap(p.Pos[i].Add(geom.Heading(p.Dir[i]).Scale(m.r / 10)))
		}
	}
}

// recorder logs the link events of each tick.
type recorder struct{ events []netsim.LinkEvent }

func (r *recorder) Name() string                            { return "recorder" }
func (r *recorder) Start(netsim.Env) error                  { return nil }
func (r *recorder) OnLinkEvent(ev netsim.LinkEvent)         { r.events = append(r.events, ev) }
func (r *recorder) OnMessage(netsim.NodeID, netsim.Message) {}
func (r *recorder) OnTick(float64)                          {}

// snapshot copies every neighbor row.
func snapshot(s *netsim.Sim) [][]netsim.NodeID {
	rows := make([][]netsim.NodeID, s.NumNodes())
	for i := range rows {
		rows[i] = slices.Clone(s.Neighbors(netsim.NodeID(i)))
	}
	return rows
}

// snapshotDiff is the brute-force event list between two snapshots: one
// event per pair (A < B) whose membership differs, ascending by (A, B).
func snapshotDiff(prev, cur [][]netsim.NodeID) []netsim.LinkEvent {
	var evs []netsim.LinkEvent
	for a := range cur {
		for b := a + 1; b < len(cur); b++ {
			was := slices.Contains(prev[a], netsim.NodeID(b))
			is := slices.Contains(cur[a], netsim.NodeID(b))
			if was != is {
				evs = append(evs, netsim.LinkEvent{A: netsim.NodeID(a), B: netsim.NodeID(b), Up: is})
			}
		}
	}
	return evs
}

// TestLinkEventsMatchSnapshotDiff pins the engine's link-event contract
// end to end: every tick's events equal a brute-force diff of the
// consecutive Neighbors snapshots, in ascending (A, B) order with ups and
// downs interleaved, and every evaluated snapshot equals a brute-force
// rescan of the positions (under a medium, filtered by its liveness and
// cuts). The cases cover the kinematic certificate tier (EpochRWP, whose
// square-metric wraps are teleports), multi-tick gaps as the event core's
// SkipTopo produces them, the drift tier with teleport bursts and
// maximal steps, and the ideal and a loss medium.
func TestLinkEventsMatchSnapshotDiff(t *testing.T) {
	const n, side, radius, dt = 120, 10.0, 1.5, 0.5
	epoch := mobility.EpochRWP{Speed: 0.1, Epoch: 6}
	lossy := &faults.Config{Loss: 0.2, Churn: faults.Churn{MeanUpTicks: 40, MeanDownTicks: 6},
		Partition: faults.Partition{PeriodTicks: 30, DurationTicks: 8}}
	for _, tc := range []struct {
		name   string
		metric geom.MetricKind
		model  func() mobility.Model
		medium *faults.Config
		gaps   bool
	}{
		{"kinematic-square", geom.MetricSquare, func() mobility.Model { return epoch }, nil, false},
		{"kinematic-torus-gaps", geom.MetricTorus, func() mobility.Model { return epoch }, nil, true},
		{"drift-teleports", geom.MetricSquare, func() mobility.Model { return &jumpy{inner: epoch, r: radius} }, nil, false},
		{"drift-teleports-gaps", geom.MetricSquare, func() mobility.Model { return &jumpy{inner: epoch, r: radius} }, nil, true},
		{"loss", geom.MetricSquare, func() mobility.Model { return epoch }, lossy, false},
		{"loss-teleports", geom.MetricTorus, func() mobility.Model { return &jumpy{inner: epoch, r: radius} }, lossy, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := netsim.Config{N: n, Side: side, Range: radius, Dt: dt, Seed: 5, Metric: tc.metric, Model: tc.model()}
			var inj *faults.Injector
			if tc.medium != nil {
				var err error
				if inj, err = faults.New(*tc.medium); err != nil {
					t.Fatal(err)
				}
				cfg.Medium = inj
			}
			s, err := netsim.New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			rec := &recorder{}
			if err := s.Register(rec); err != nil {
				t.Fatal(err)
			}
			metric, err := geom.NewMetric(tc.metric, side)
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(3))
			prev := snapshot(s)
			var events, skipped int
			for tick := 1; tick <= 300; tick++ {
				rec.events = rec.events[:0]
				skip := tc.gaps && rng.Float64() < 0.4
				if _, err := s.StepControlled(netsim.StepControl{RunPhase: true, SkipTopo: skip}); err != nil {
					t.Fatal(err)
				}
				cur := snapshot(s)
				if skip {
					skipped++
					if len(rec.events) != 0 || fmt.Sprint(cur) != fmt.Sprint(prev) {
						t.Fatalf("tick %d: a skipped topology tick changed the adjacency", tick)
					}
					continue
				}
				want := snapshotDiff(prev, cur)
				if len(rec.events) != len(want) {
					t.Fatalf("tick %d: %d events, snapshot diff has %d", tick, len(rec.events), len(want))
				}
				for k, ev := range rec.events {
					if ev.A != want[k].A || ev.B != want[k].B || ev.Up != want[k].Up {
						t.Fatalf("tick %d: event %d is %+v, snapshot diff has %+v", tick, k, ev, want[k])
					}
				}
				events += len(want)
				for i := 0; i < n; i++ {
					var row []netsim.NodeID
					for j := 0; j < n; j++ {
						id, jd := netsim.NodeID(i), netsim.NodeID(j)
						if j == i || metric.Dist2(s.Position(id), s.Position(jd)) > radius*radius {
							continue
						}
						if inj != nil && (!inj.Alive(id) || !inj.Alive(jd) || inj.Cut(id, jd)) {
							continue
						}
						row = append(row, jd)
					}
					if !slices.Equal(cur[i], row) {
						t.Fatalf("tick %d row %d: engine %v, rescan %v", tick, i, cur[i], row)
					}
				}
				prev = cur
			}
			if events < 300 || (tc.gaps && skipped < 60) {
				t.Fatalf("only %d events and %d skipped ticks: the case exercises too little", events, skipped)
			}
			t.Logf("%d events, %d skipped ticks, index %+v", events, skipped, s.IndexStats())
		})
	}
}
