// Package mobility implements the node mobility models used by the paper
// and its simulation study:
//
//   - BCV, the Bounded Constant Velocity model of §3.2: nodes start
//     uniformly distributed, each picks one direction forever and moves at
//     a single constant speed, wrapping at the region borders.
//   - EpochRWP, the Random-Waypoint variant of §4: nodes re-draw a uniform
//     direction every epoch, move at a common constant speed, and wrap at
//     the borders without changing direction. This is the model the paper
//     validates the analysis against; it matches BCV's uniform spatial
//     distribution and link-change statistics.
//   - RandomWaypoint and RandomWalk, the two classic models the paper
//     cites as analytically intractable — provided for ablation studies.
//   - Static, for formation-phase experiments (Figure 5).
//
// All models draw exclusively from the *rand.Rand handed to them, keeping
// simulations reproducible from a single seed.
//
// Node state lives in a Population: a struct-of-arrays layout where each
// per-node attribute is a flat parallel slice. The hot consumers — the
// spatial index streaming Pos, the engine reading Wrapped — walk
// contiguous memory instead of striding over per-node structs.
package mobility

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/geom"
	"repro/internal/simrand"
)

// Population is the struct-of-arrays mobility state for n nodes: slice k
// of each array belongs to node k. Pos and Wrapped are the simulator's
// read surface; the remaining arrays are model-owned scratch. All slices
// share the same length.
type Population struct {
	Pos     []geom.Vec2
	Dir     []float64 // heading, radians
	Speed   []float64 // current speed, distance per unit time
	Wrapped []bool    // whether the node wrapped a border during the last Step

	// scratch for waypoint/epoch models
	Target    []geom.Vec2
	Remaining []float64 // time left in the current epoch or pause
	Paused    []bool

	// head caches geom.Heading(Dir[i]) for the Dir whose bits are
	// headOf[i]; see heading.
	head   []geom.Vec2
	headOf []uint64
}

// NewPopulation allocates state for n nodes, all zero.
func NewPopulation(n int) *Population {
	p := &Population{
		Pos:       make([]geom.Vec2, n),
		Dir:       make([]float64, n),
		Speed:     make([]float64, n),
		Wrapped:   make([]bool, n),
		Target:    make([]geom.Vec2, n),
		Remaining: make([]float64, n),
		Paused:    make([]bool, n),
		head:      make([]geom.Vec2, n),
		headOf:    make([]uint64, n),
	}
	for i := range p.head {
		p.head[i] = geom.Heading(0)
	}
	return p
}

// heading returns geom.Heading(p.Dir[i]), recomputing it only when the
// bits of Dir[i] changed since the last call: the trigonometry then runs
// once per direction draw rather than once per step and per kinematics
// fill, with identical results.
func (p *Population) heading(i int) geom.Vec2 {
	if p.head == nil {
		return geom.Heading(p.Dir[i])
	}
	if b := math.Float64bits(p.Dir[i]); b != p.headOf[i] {
		p.head[i] = geom.Heading(p.Dir[i])
		p.headOf[i] = b
	}
	return p.head[i]
}

// Len reports the number of nodes.
func (p *Population) Len() int { return len(p.Pos) }

// Permute relabels the nodes: node i takes the state previously held by
// node perm[i]. Used by metamorphic relabeling tests.
func (p *Population) Permute(perm []int) {
	permuteSlice(p.Pos, perm)
	permuteSlice(p.Dir, perm)
	permuteSlice(p.Speed, perm)
	permuteSlice(p.Wrapped, perm)
	permuteSlice(p.Target, perm)
	permuteSlice(p.Remaining, perm)
	permuteSlice(p.Paused, perm)
	if p.head != nil {
		permuteSlice(p.head, perm)
		permuteSlice(p.headOf, perm)
	}
}

func permuteSlice[T any](s []T, perm []int) {
	tmp := make([]T, len(s))
	for i := range tmp {
		tmp[i] = s[perm[i]]
	}
	copy(s, tmp)
}

// Model advances a population of node states through time.
type Model interface {
	// Name identifies the model in metrics and logs.
	Name() string
	// Init places n nodes uniformly in the region and initializes
	// model-specific state.
	Init(n int, metric geom.Metric, rng *rand.Rand) (*Population, error)
	// Step advances every node by dt time units. Implementations must
	// set each node's Wrapped flag to whether that node wrapped a border
	// during this step.
	Step(p *Population, metric geom.Metric, dt float64, rng *rand.Rand)
}

// uniformInit places n nodes uniformly at random in the region.
func uniformInit(n int, metric geom.Metric, rng *rand.Rand) (*Population, error) {
	if n <= 0 {
		return nil, fmt.Errorf("mobility: need a positive node count, got %d", n)
	}
	p := NewPopulation(n)
	for i := range p.Pos {
		x, y := simrand.UniformIn(rng, metric.Side())
		p.Pos[i] = geom.Vec2{X: x, Y: y}
	}
	return p, nil
}

// advanceWrap moves node i along its heading for dt, wrapping at borders.
func advanceWrap(p *Population, i int, metric geom.Metric, dt float64) {
	np := p.Pos[i].Add(p.heading(i).Scale(p.Speed[i] * dt))
	p.Pos[i], p.Wrapped[i] = metric.Wrap(np)
}

// advanceReflect moves node i along its heading for dt, reflecting at
// borders (classic random-walk boundary handling). Reflection never wraps.
func advanceReflect(p *Population, i int, metric geom.Metric, dt float64) {
	side := metric.Side()
	dir := p.heading(i)
	np := p.Pos[i].Add(dir.Scale(p.Speed[i] * dt))
	var rx, ry bool
	np.X, dir.X, rx = reflectCoord(np.X, dir.X, side)
	np.Y, dir.Y, ry = reflectCoord(np.Y, dir.Y, side)
	p.Pos[i] = np
	if rx || ry {
		// Only recompute the heading when a reflection happened: the
		// Heading→Angle round trip is not bit-exact and would otherwise
		// drift straight-line trajectories.
		p.Dir[i] = dir.Angle()
	}
	p.Wrapped[i] = false
}

// reflectCoord folds x back into [0, side] and flips the velocity
// component when a border was crossed, reporting whether it did.
func reflectCoord(x, v, side float64) (float64, float64, bool) {
	reflected := false
	for x < 0 || x > side {
		reflected = true
		if x < 0 {
			x = -x
			v = -v
		}
		if x > side {
			x = 2*side - x
			v = -v
		}
	}
	// Keep strictly inside [0, side) so grid indexing stays in range.
	if x >= side {
		x = math.Nextafter(side, 0)
	}
	return x, v, reflected
}

// --- BCV -----------------------------------------------------------------

// BCV is the Bounded Constant Velocity model: every node moves forever in
// one uniformly chosen direction at the same constant speed, wrapping at
// the region borders (the bounded window of the paper's §3.2).
type BCV struct {
	// Speed is the common node speed, distance per unit time.
	Speed float64
}

var _ Model = BCV{}

// Name implements Model.
func (BCV) Name() string { return "bcv" }

// Init implements Model.
func (m BCV) Init(n int, metric geom.Metric, rng *rand.Rand) (*Population, error) {
	if m.Speed < 0 {
		return nil, fmt.Errorf("mobility: BCV speed must be non-negative, got %g", m.Speed)
	}
	p, err := uniformInit(n, metric, rng)
	if err != nil {
		return nil, err
	}
	for i := range p.Dir {
		p.Dir[i] = simrand.Direction(rng)
		p.Speed[i] = m.Speed
	}
	return p, nil
}

// Step implements Model.
func (m BCV) Step(p *Population, metric geom.Metric, dt float64, _ *rand.Rand) {
	for i := range p.Pos {
		advanceWrap(p, i, metric, dt)
	}
}

// --- EpochRWP ------------------------------------------------------------

// EpochRWP is the paper's simulation mobility model (§4): at every epoch
// boundary each node independently draws a fresh uniform direction, then
// moves at the common constant speed for the epoch duration, wrapping at
// the borders without changing direction.
type EpochRWP struct {
	// Speed is the common node speed, distance per unit time.
	Speed float64
	// Epoch is the duration τ between direction re-draws.
	Epoch float64
}

var _ Model = EpochRWP{}

// Name implements Model.
func (EpochRWP) Name() string { return "epoch-rwp" }

// Init implements Model.
func (m EpochRWP) Init(n int, metric geom.Metric, rng *rand.Rand) (*Population, error) {
	if m.Speed < 0 {
		return nil, fmt.Errorf("mobility: EpochRWP speed must be non-negative, got %g", m.Speed)
	}
	if m.Epoch <= 0 {
		return nil, fmt.Errorf("mobility: EpochRWP epoch must be positive, got %g", m.Epoch)
	}
	p, err := uniformInit(n, metric, rng)
	if err != nil {
		return nil, err
	}
	for i := range p.Dir {
		p.Dir[i] = simrand.Direction(rng)
		p.Speed[i] = m.Speed
		p.Remaining[i] = m.Epoch
	}
	return p, nil
}

// Step implements Model.
func (m EpochRWP) Step(p *Population, metric geom.Metric, dt float64, rng *rand.Rand) {
	for i := range p.Pos {
		p.Remaining[i] -= dt
		if p.Remaining[i] <= 0 {
			p.Dir[i] = simrand.Direction(rng)
			p.Remaining[i] += m.Epoch
		}
		advanceWrap(p, i, metric, dt)
	}
}

// --- RandomWaypoint --------------------------------------------------------

// RandomWaypoint is the classic RWP model: each node repeatedly picks a
// uniform waypoint, travels to it at a speed drawn uniformly from
// [MinSpeed, MaxSpeed], pauses for Pause time units, and repeats. Noted by
// the paper (§3.2) as analytically unfavorable — its stationary spatial
// distribution is not uniform — so it serves as an ablation here.
type RandomWaypoint struct {
	MinSpeed float64
	MaxSpeed float64
	Pause    float64
}

var _ Model = RandomWaypoint{}

// Name implements Model.
func (RandomWaypoint) Name() string { return "rwp" }

// Init implements Model.
func (m RandomWaypoint) Init(n int, metric geom.Metric, rng *rand.Rand) (*Population, error) {
	if m.MinSpeed <= 0 || m.MaxSpeed < m.MinSpeed {
		return nil, fmt.Errorf("mobility: RWP needs 0 < MinSpeed ≤ MaxSpeed, got [%g, %g]",
			m.MinSpeed, m.MaxSpeed)
	}
	if m.Pause < 0 {
		return nil, fmt.Errorf("mobility: RWP pause must be non-negative, got %g", m.Pause)
	}
	p, err := uniformInit(n, metric, rng)
	if err != nil {
		return nil, err
	}
	for i := range p.Pos {
		m.pickLeg(p, i, metric, rng)
	}
	return p, nil
}

func (m RandomWaypoint) pickLeg(p *Population, i int, metric geom.Metric, rng *rand.Rand) {
	x, y := simrand.UniformIn(rng, metric.Side())
	p.Target[i] = geom.Vec2{X: x, Y: y}
	p.Speed[i] = m.MinSpeed + rng.Float64()*(m.MaxSpeed-m.MinSpeed)
	p.Dir[i] = p.Target[i].Sub(p.Pos[i]).Angle()
	p.Paused[i] = false
}

// Step implements Model.
func (m RandomWaypoint) Step(p *Population, metric geom.Metric, dt float64, rng *rand.Rand) {
	for i := range p.Pos {
		p.Wrapped[i] = false
		left := dt
		for left > 0 {
			if p.Paused[i] {
				if p.Remaining[i] > left {
					p.Remaining[i] -= left
					break
				}
				left -= p.Remaining[i]
				m.pickLeg(p, i, metric, rng)
				continue
			}
			dist := p.Target[i].Sub(p.Pos[i]).Norm()
			travel := p.Speed[i] * left
			if travel < dist {
				p.Pos[i] = p.Pos[i].Add(p.Target[i].Sub(p.Pos[i]).Unit().Scale(travel))
				break
			}
			// Arrive at the waypoint and start pausing.
			if p.Speed[i] > 0 {
				left -= dist / p.Speed[i]
			}
			p.Pos[i] = p.Target[i]
			p.Paused[i] = true
			p.Remaining[i] = m.Pause
			if m.Pause == 0 {
				m.pickLeg(p, i, metric, rng)
			}
		}
	}
}

// --- RandomWalk ------------------------------------------------------------

// RandomWalk is the classic random-walk (Brownian-like) model: each epoch
// the node draws a fresh uniform direction and a speed uniform in
// [MinSpeed, MaxSpeed], then travels for the epoch duration, reflecting
// off the region borders.
type RandomWalk struct {
	MinSpeed float64
	MaxSpeed float64
	Epoch    float64
}

var _ Model = RandomWalk{}

// Name implements Model.
func (RandomWalk) Name() string { return "random-walk" }

// Init implements Model.
func (m RandomWalk) Init(n int, metric geom.Metric, rng *rand.Rand) (*Population, error) {
	if m.MinSpeed < 0 || m.MaxSpeed < m.MinSpeed {
		return nil, fmt.Errorf("mobility: RandomWalk needs 0 ≤ MinSpeed ≤ MaxSpeed, got [%g, %g]",
			m.MinSpeed, m.MaxSpeed)
	}
	if m.Epoch <= 0 {
		return nil, fmt.Errorf("mobility: RandomWalk epoch must be positive, got %g", m.Epoch)
	}
	p, err := uniformInit(n, metric, rng)
	if err != nil {
		return nil, err
	}
	for i := range p.Pos {
		m.pickEpoch(p, i, rng)
	}
	return p, nil
}

func (m RandomWalk) pickEpoch(p *Population, i int, rng *rand.Rand) {
	p.Dir[i] = simrand.Direction(rng)
	p.Speed[i] = m.MinSpeed + rng.Float64()*(m.MaxSpeed-m.MinSpeed)
	p.Remaining[i] = m.Epoch
}

// Step implements Model.
func (m RandomWalk) Step(p *Population, metric geom.Metric, dt float64, rng *rand.Rand) {
	for i := range p.Pos {
		p.Remaining[i] -= dt
		if p.Remaining[i] <= 0 {
			m.pickEpoch(p, i, rng)
		}
		advanceReflect(p, i, metric, dt)
	}
}

// --- Static ------------------------------------------------------------------

// Static places nodes uniformly and never moves them. Used for
// formation-phase experiments such as Figure 5.
type Static struct{}

var _ Model = Static{}

// Name implements Model.
func (Static) Name() string { return "static" }

// Init implements Model.
func (Static) Init(n int, metric geom.Metric, rng *rand.Rand) (*Population, error) {
	return uniformInit(n, metric, rng)
}

// Step implements Model.
func (Static) Step(p *Population, _ geom.Metric, _ float64, _ *rand.Rand) {
	for i := range p.Wrapped {
		p.Wrapped[i] = false
	}
}
