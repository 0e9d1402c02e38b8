package mobility

import (
	"math"

	"repro/internal/geom"
)

// Predictable is the optional Model extension the event-driven core
// (internal/eventsim) uses to bound when the next link crossing can
// occur. The contract has three parts:
//
//   - SpeedBound bounds every node's speed at every time, across epoch
//     and waypoint re-draws. It yields the direction-free Lipschitz
//     tier: a pair at distance D from the link radius r cannot flip its
//     link state for |D−r|/(2·SpeedBound) time units.
//   - WrapsBorders declares whether Step may carry a node across the
//     region border. Under the square metric a wrap is a teleport that
//     can flip links with arbitrarily distant nodes, so the predictor
//     must bound the first possible wrap globally; models that never
//     wrap (waypoint targets are interior, random walks reflect) let it
//     skip that pass entirely.
//   - FillKinematics exposes closed-form per-node kinematics where they
//     exist: node i moves with constant velocity vel[i] for at least
//     hold[i] time units (ignoring border handling, which the caller
//     bounds separately). It reports false for models that move nodes
//     but have no usable closed form; the caller then falls back to the
//     MaxSpeed bound alone, which is why a model reporting false must
//     also report WrapsBorders false to be predictable at all.
//
// Models implementing neither Predictable nor usable kinematics (group
// and AR(1) models) simply force the event core to evaluate topology
// every tick — correct, just without the fast path.
type Predictable interface {
	Model
	// SpeedBound bounds every node's speed at all times.
	SpeedBound() float64
	// WrapsBorders reports whether Step may wrap a node across the
	// region border.
	WrapsBorders() bool
	// FillKinematics writes each node's current velocity and guaranteed
	// constant-velocity hold time (+Inf = forever) into vel and hold,
	// both of length p.Len(), and reports whether the model has such a
	// closed form at all. A false report leaves the slices unspecified.
	FillKinematics(p *Population, vel []geom.Vec2, hold []float64) bool
}

var (
	_ Predictable = BCV{}
	_ Predictable = EpochRWP{}
	_ Predictable = Static{}
	_ Predictable = RandomWaypoint{}
	_ Predictable = RandomWalk{}
)

// SpeedBound implements Predictable.
func (m BCV) SpeedBound() float64 { return m.Speed }

// WrapsBorders implements Predictable: BCV wraps at the borders.
func (BCV) WrapsBorders() bool { return true }

// FillKinematics implements Predictable: one direction forever.
func (BCV) FillKinematics(p *Population, vel []geom.Vec2, hold []float64) bool {
	for i := range p.Pos {
		vel[i] = p.heading(i).Scale(p.Speed[i])
		hold[i] = math.Inf(1)
	}
	return true
}

// SpeedBound implements Predictable.
func (m EpochRWP) SpeedBound() float64 { return m.Speed }

// WrapsBorders implements Predictable: EpochRWP wraps at the borders.
func (EpochRWP) WrapsBorders() bool { return true }

// FillKinematics implements Predictable: the heading is constant until
// the epoch's remaining time elapses. Step re-draws the direction at the
// start of the step that overruns the epoch, so positions follow the
// current velocity exactly for every time strictly below Remaining.
func (EpochRWP) FillKinematics(p *Population, vel []geom.Vec2, hold []float64) bool {
	for i := range p.Pos {
		vel[i] = p.heading(i).Scale(p.Speed[i])
		hold[i] = p.Remaining[i]
	}
	return true
}

// SpeedBound implements Predictable.
func (Static) SpeedBound() float64 { return 0 }

// WrapsBorders implements Predictable.
func (Static) WrapsBorders() bool { return false }

// FillKinematics implements Predictable: nothing ever moves.
func (Static) FillKinematics(p *Population, vel []geom.Vec2, hold []float64) bool {
	for i := range p.Pos {
		vel[i] = geom.Vec2{}
		hold[i] = math.Inf(1)
	}
	return true
}

// SpeedBound implements Predictable.
func (m RandomWaypoint) SpeedBound() float64 { return m.MaxSpeed }

// WrapsBorders implements Predictable: waypoints are interior, so the
// straight legs never touch a border.
func (RandomWaypoint) WrapsBorders() bool { return false }

// FillKinematics implements Predictable: the pause/arrival sub-tick
// logic has no one-velocity closed form, so only the speed bound is
// offered.
func (RandomWaypoint) FillKinematics(*Population, []geom.Vec2, []float64) bool { return false }

// SpeedBound implements Predictable.
func (m RandomWalk) SpeedBound() float64 { return m.MaxSpeed }

// WrapsBorders implements Predictable: reflection keeps nodes inside.
func (RandomWalk) WrapsBorders() bool { return false }

// FillKinematics implements Predictable: reflections bend trajectories
// mid-epoch, so only the speed bound is offered.
func (RandomWalk) FillKinematics(*Population, []geom.Vec2, []float64) bool { return false }

// NextCrossing returns the earliest time t in (0, window] at which two
// nodes with current relative displacement delta and constant relative
// velocity relVel are exactly r apart — the closed-form root of
// |delta + relVel·t|² = r². ok is false when no such time exists within
// the window (the pair's link state provably cannot flip before it,
// absent border effects).
func NextCrossing(delta, relVel geom.Vec2, r, window float64) (t float64, ok bool) {
	a := relVel.Norm2()
	if a == 0 {
		return 0, false
	}
	b := 2 * delta.Dot(relVel)
	c := delta.Norm2() - r*r
	disc := b*b - 4*a*c
	if disc < 0 {
		return 0, false
	}
	s := math.Sqrt(disc)
	t1 := (-b - s) / (2 * a)
	t2 := (-b + s) / (2 * a)
	switch {
	case t1 > 0 && t1 <= window:
		return t1, true
	case t2 > 0 && t2 <= window:
		return t2, true
	default:
		return 0, false
	}
}
