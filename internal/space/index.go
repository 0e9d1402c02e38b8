package space

import (
	"fmt"
	"math"
	"math/bits"
	"slices"

	"repro/internal/geom"
	"repro/internal/mobility"
)

// Flip is one change of a pair's link state found by Begin: the pair
// (A, B), A < B, came within the radius (Up) or left it.
type Flip struct {
	A, B int32
	Up   bool
}

// IndexStats counts the work the incremental index performed.
type IndexStats struct {
	// Ticks is the number of Begin calls since construction.
	Ticks int64
	// RequeriedRows counts the adjacency rows the index rebuilt or
	// patched: every row at the initial build, then each Begin's
	// distinct flip endpoints — the rows whose neighbor list changed.
	RequeriedRows int64
	// PairChecks is the number of pair certificates evaluated with an
	// exact distance: due pairs, new window entrants and a teleporter's
	// pairs. It is the index's per-tick work.
	PairChecks int64
	// WindowScans is the number of window scans: a node whose cell
	// changed scans the cells its window gained, a teleporter its whole
	// window, and the initial build every window.
	WindowScans int64
	// Teleports is the number of teleport steps (border wraps under the
	// square metric) whose pairs Begin re-checked.
	Teleports int64
}

// Index is an incrementally maintained spatial index over a population of
// moving positions. It keeps its cell buckets current by moving only the
// nodes whose cell changed, and it maintains the geometric adjacency
// (the pairs within the query radius) by kinetic pair certificates, in
// the manner of kinetic data structures (Basch, Guibas & Hershberger,
// SODA 1997).
//
// The tracked pairs are exactly the pairs whose cells lie within the
// radius of each other (the cell rectangles' distance): the window
// relation, a superset of the links that depends on cells alone. Each
// tracked pair (i, j), i < j, is stored once, in node i's list, with its
// current link state and a due key: a certificate that the link state
// cannot change before it. It may fire early, never late. A calendar
// files every node under the earliest key of its list, and Begin
// re-checks only the pairs whose key has come due, so its work follows
// link flips and cell changes, not node degree. A node whose cell
// changes drops the pairs that left its window and certifies only the
// new entrants; a teleporter (a step over half a cell, e.g. a border
// wrap under the square metric) voids its certificates, so its whole
// window is re-checked.
//
// Begin returns the pairs whose link state flipped since the previous
// call, sorted ascending by (A, B): applied to the previous adjacency
// they give the adjacency a full rescan would produce.
//
// Index is not safe for concurrent use.
type Index struct {
	metric    geom.Metric
	radius    float64
	r2        float64
	cells     int
	cellSize  float64
	span      int  // window half-width in cells: floor(radius/cellSize)+1
	wholeAxis bool // 2·span+1 ≥ cells: window offsets alias on the torus
	torus     bool
	theta     float64 // step length above which a move counts as a teleport
	eps       float64 // distance band absorbing floating-point daylight

	pos    []geom.Vec2 // caller's live position slice
	last   []geom.Vec2 // positions at the previous Begin
	cellOf []int32     // current cell per node
	xy     []uint32    // its coordinates, cx<<16 | cy
	slot   []int32     // position of node i inside bucket[cellOf[i]]
	bucket [][]int32   // per-cell member lists (order deterministic, not sorted)
	// cellGap[d+cells−1] is the cell distance for a coordinate delta d:
	// |d|, or its minimum image on the torus, capped at span+1. Cells gx
	// and gy apart along the axes are near when gx ≤ reach[gy]; reach
	// [span+1] is −1, as such cells are never near.
	cellGap []int32
	reach   []int32
	// strips[(sx+1)*3+sy+1] lists the offsets (dx, dy) of the cells near
	// a cell but not near its neighbor at offset (sx, sy).
	strips [9][][2]int8

	// gSum is the global drift budget: the sum of every Begin's largest
	// non-teleport step. It bounds every node's path between Begins.
	gSum float64

	// up[i] holds the pairs (i, j), j > i, unordered; a node's pairs
	// with lower partners sit in those partners' lists. Under the drift
	// tier, due[i][k] is the gSum up to which up[i][k]'s certificate
	// holds.
	up      [][]entry
	due     [][]float64
	mark    []uint32 // shift and rewindow scratch: per-node stamps
	ndoomed []int32  // per node: its pairs marked doomed this Begin
	stamp   uint32
	rowSeen []int64 // Ticks stamp of the rows counted this Begin

	// The calendar: a ring of calLen doubly linked node lists, one per
	// key; node i is filed under nkey[i], no later than the earliest key
	// in up[i]. The clock is the last key drained. Keys are ticks under
	// the kinematic tier and multiples of quantum of gSum under the drift
	// tier; drainedG is the gSum the drift tier last drained at.
	heads        []int32
	nkey         []uint32
	nprev, nnext []int32
	clock        int64
	quantum      float64
	drainedG     float64
	tick         int64
	kin          *kinematics // nil: drift tier
	built        bool
	burst        bool // the flip scratch still holds the build's all-links burst

	flips    []Flip
	flipKeys []uint64 // A<<33 | B<<1 | up per flip, the sort's input
	keysTmp  []uint64 // sortFlips scratch
	byA      []int32  // sortFlips scratch: per-node counts, len N+1
	telep    []int32  // scratch: this tick's teleporters
	teleFrom []int32  // scratch: their cells before the move
	teleAt   []int64  // per node: the Ticks stamp of its last teleport
	doomed   []int32  // scratch: the nodes with pairs a move may have taken out of window
	entrants []int32  // scratch: a teleporter's new window entrants
	win      []int32  // scratch: window cells

	stats IndexStats
}

// entry is one tracked pair (i, j), j > i, in up[i]: the partner with
// two flag bits, and the calendar key of its certificate modulo 2³²
// (compared with wraparound: keys are never calLen or more from the
// clock).
type entry struct {
	j   uint32
	key uint32
}

const (
	linkedBit = 1 << 31 // the pair is within the radius
	doomedBit = 1 << 30 // a move took the pair out of window; settled at the end of Begin
	idMask    = doomedBit - 1
)

// kinematics is the state of the kinematic certificate tier: the model's
// speed bound and, per node, the velocity and its hold time as filled at
// tick filled.
type kinematics struct {
	model  mobility.Predictable
	pop    *mobility.Population
	dt     float64
	invDt  float64
	vmax   float64
	vel    []geom.Vec2
	hold   []float64
	exact  bool // the last fill reported closed-form kinematics
	filled int64
}

// indexBeta is the slack factor applied to the query radius when sizing
// the cells: indexSpan cells span radius·(1+indexBeta). With indexSpan
// it trades cell changes (each scans the cells its window gained and
// lost) against window size (every tracked pair is re-certified at least
// once per velocity hold, and costs 8 bytes). On Figures 1–3 (2-CPU
// host, one pass ≈ 2.0–2.4 s), spans 3 and 4 with indexBeta 0, 0.15 and
// 0.3 all ran within the host's ±5% noise of each other, while tracked
// pairs per link ranged from 1.5 to 2.7; span 4 at 0.15 tracks 1.8.
const indexBeta = 0.15

// indexSpan is the cell count the slackened radius is split into per
// axis: finer cells hug the radius tighter, so a window tracks fewer
// far pairs, at the price of more frequent cell changes.
const indexSpan = 4

// calLen is the calendar's ring length, a power of two: a certificate
// reaches at most calLen−1 keys ahead of the clock, and longer ones are
// cut there (early is always sound).
const calLen = 256

// driftKeys is the number of drift-tier keys per cell width: the finer
// the keys, the closer a pair is re-checked to its certificate.
const driftKeys = 64

// NewIndex builds an incremental index over pos, tuned for neighbor
// queries of the given radius. The slice is retained and read on every
// Begin; the caller mutates positions in place between ticks. The first
// Begin builds every window and reports every linked pair as an up flip.
func NewIndex(metric geom.Metric, radius float64, pos []geom.Vec2) (*Index, error) {
	if radius <= 0 {
		return nil, fmt.Errorf("space: radius must be positive, got %g", radius)
	}
	side := metric.Side()
	cells := int(math.Floor(side * indexSpan / (radius * (1 + indexBeta))))
	if cells < 1 {
		cells = 1
	}
	const maxCellsPerAxis = 1024
	if cells > maxCellsPerAxis {
		cells = maxCellsPerAxis
	}
	n := len(pos)
	x := &Index{
		metric:   metric,
		radius:   radius,
		r2:       radius * radius,
		cells:    cells,
		cellSize: side / float64(cells),
		torus:    metric.Kind() == geom.MetricTorus,
		eps:      side * 1e-9,
		pos:      pos,
		last:     make([]geom.Vec2, n),
		cellOf:   make([]int32, n),
		xy:       make([]uint32, n),
		slot:     make([]int32, n),
		bucket:   make([][]int32, cells*cells),
		up:       make([][]entry, n),
		due:      make([][]float64, n),
		mark:     make([]uint32, n),
		ndoomed:  make([]int32, n),
		rowSeen:  make([]int64, n),
		teleAt:   make([]int64, n),
		heads:    make([]int32, calLen),
		nkey:     make([]uint32, n),
		nprev:    make([]int32, n),
		nnext:    make([]int32, n),
		byA:      make([]int32, n+1),
	}
	x.span = int(math.Floor(x.radius/x.cellSize)) + 1
	x.wholeAxis = 2*x.span+1 >= x.cells
	x.theta = x.cellSize / 2
	x.quantum = x.cellSize / driftKeys
	x.cellGap = make([]int32, 2*cells-1)
	for d := -(cells - 1); d < cells; d++ {
		g := int32(abs(d))
		if x.torus {
			g = min(g, int32(cells)-g)
		}
		x.cellGap[d+cells-1] = min(g, int32(x.span+1))
	}
	x.reach = make([]int32, x.span+2)
	for dy := 0; dy <= x.span+1; dy++ {
		x.reach[dy] = -1
		for dx := 0; dy <= x.span && dx <= x.span; dx++ {
			// The rectangles' distance: whole cells strictly between them.
			gx := float64(max(dx-1, 0)) * x.cellSize
			gy := float64(max(dy-1, 0)) * x.cellSize
			if gx*gx+gy*gy <= x.r2 {
				x.reach[dy] = int32(dx)
			}
		}
	}
	if !x.wholeAxis {
		for sx := -1; sx <= 1; sx++ {
			for sy := -1; sy <= 1; sy++ {
				for dy := -x.span; dy <= x.span; dy++ {
					for dx := -x.span; dx <= x.span; dx++ {
						if x.nearOffset(dx, dy) && !x.nearOffset(dx-sx, dy-sy) {
							x.strips[(sx+1)*3+sy+1] = append(x.strips[(sx+1)*3+sy+1], [2]int8{int8(dx), int8(dy)})
						}
					}
				}
			}
		}
	}
	copy(x.last, pos)
	for k := range x.heads {
		x.heads[k] = -1
	}
	// Pre-size every bucket with headroom over its initial occupancy:
	// cell-crossers otherwise keep tripping append growth in moveBucket
	// for thousands of ticks while per-cell maxima creep toward the
	// occupancy distribution's tail, and the steady-state tick loop is
	// supposed to be allocation-free.
	counts := make([]int32, cells*cells)
	for i := range pos {
		counts[x.cellIndex(pos[i])]++
	}
	for c, cnt := range counts {
		x.bucket[c] = make([]int32, 0, int(cnt)+int(cnt)/2+4)
	}
	for i := range pos {
		c := int32(x.cellIndex(pos[i]))
		x.cellOf[i] = c
		x.xy[i] = x.coords(c)
		x.slot[i] = int32(len(x.bucket[c]))
		x.bucket[c] = append(x.bucket[c], int32(i))
	}
	return x, nil
}

// UseKinematics switches the index to the kinematic certificate tier for
// a model with a speed bound: pair keys become ticks, each the speed-bound
// (Lipschitz) certificate or, where the model fills closed-form
// kinematics, the closed-form next radius crossing within the velocity
// hold if that is later. pop must be the population whose Pos the index
// reads and dt the tick length; Begin must then be passed the tick
// number. A model without a positive speed bound keeps the drift tier,
// which needs no model. It must be called before the first Begin.
func (x *Index) UseKinematics(m mobility.Predictable, pop *mobility.Population, dt float64) {
	if x.built || m.SpeedBound() <= 0 {
		return
	}
	n := len(x.pos)
	x.kin = &kinematics{
		model:  m,
		pop:    pop,
		dt:     dt,
		invDt:  1 / dt,
		vmax:   m.SpeedBound(),
		vel:    make([]geom.Vec2, n),
		hold:   make([]float64, n),
		filled: -1,
	}
}

// Radius reports the query radius the index was tuned for.
func (x *Index) Radius() float64 { return x.radius }

// Stats returns the accumulated work counters.
func (x *Index) Stats() IndexStats { return x.stats }

// cellIndex maps a position to its cell, clamping strays at the border.
func (x *Index) cellIndex(p geom.Vec2) int {
	cx := int(p.X / x.cellSize)
	cy := int(p.Y / x.cellSize)
	if cx < 0 {
		cx = 0
	} else if cx >= x.cells {
		cx = x.cells - 1
	}
	if cy < 0 {
		cy = 0
	} else if cy >= x.cells {
		cy = x.cells - 1
	}
	return cy*x.cells + cx
}

// moveBucket relocates node i from cell oldC to newC with a swap-remove,
// keeping every bucket's order a deterministic function of the move
// history.
func (x *Index) moveBucket(i, oldC, newC int32) {
	b := x.bucket[oldC]
	s := x.slot[i]
	lastIdx := int32(len(b) - 1)
	moved := b[lastIdx]
	b[s] = moved
	x.slot[moved] = s
	x.bucket[oldC] = b[:lastIdx]

	x.slot[i] = int32(len(x.bucket[newC]))
	x.bucket[newC] = append(x.bucket[newC], i)
	x.cellOf[i] = newC
	x.xy[i] = x.coords(newC)
}

// coords packs cell c's coordinates as cx<<16 | cy.
func (x *Index) coords(c int32) uint32 {
	return uint32(c%int32(x.cells))<<16 | uint32(c/int32(x.cells))
}

// Begin advances the index to the given tick and returns the pairs whose
// link state flipped since the previous call, ascending by (A, B). The
// slice is reused by the next call. It measures every node's step and
// moves the nodes whose cell changed one at a time, each certifying the
// entrants of its window; then it re-checks every teleporter's window,
// drops the pairs whose cells drifted apart, and re-checks the pairs
// whose certificate came due. The tick matters only under the kinematic
// tier; ticks may be skipped. No motion means no flips and no work
// beyond the O(N) step pass.
func (x *Index) Begin(tick int64) []Flip {
	n := len(x.pos)
	x.stats.Ticks++
	x.tick = tick
	if !x.built {
		x.build()
		return x.flips
	}
	if x.burst {
		// Let go of the scratch the initial build's all-links burst grew.
		x.flips, x.flipKeys, x.keysTmp = nil, nil, nil
		x.burst = false
	}
	x.flips = x.flips[:0]
	x.flipKeys = x.flipKeys[:0]
	x.telep = x.telep[:0]
	maxStep := 0.0
	for i := 0; i < n; i++ {
		d := x.metric.Dist(x.last[i], x.pos[i])
		x.last[i] = x.pos[i]
		if d > x.theta {
			// A teleport: excluded from the drift budget, moved and
			// re-checked below.
			x.telep = append(x.telep, int32(i))
			x.teleAt[i] = x.stats.Ticks
			continue
		}
		maxStep = max(maxStep, d)
		// Moving nodes one at a time keeps every window exact: the
		// cells node i gains are judged against the other nodes' cells
		// as they stand, moved or not. Judged against their final cells
		// instead, two nodes that close the gap between their windows on
		// the same tick would each see the other in a cell it already
		// had.
		if c := int32(x.cellIndex(x.pos[i])); c != x.cellOf[i] {
			x.shift(int32(i), c)
		}
	}
	x.gSum += maxStep
	x.stats.Teleports += int64(len(x.telep))
	// Teleporters move after everyone else and all at once, so each
	// rewindow sees every other node where it ends the tick: a pair of
	// teleporters is then re-checked, never dropped and re-added.
	x.teleFrom = x.teleFrom[:0]
	for _, j := range x.telep {
		x.teleFrom = append(x.teleFrom, x.cellOf[j])
		x.moveBucket(j, x.cellOf[j], int32(x.cellIndex(x.pos[j])))
	}
	for k, j := range x.telep {
		x.rewindow(j, x.teleFrom[k])
	}
	for _, a := range x.doomed {
		for k := 0; k < len(x.up[a]); {
			e := &x.up[a][k]
			if e.j&doomedBit != 0 {
				e.j &^= doomedBit
				if !x.near(x.xy[a], x.xy[e.j&idMask]) {
					x.drop(a, k) // swap-removes entry k
					continue
				}
			}
			k++
		}
		x.ndoomed[a] = 0
	}
	x.doomed = x.doomed[:0]
	x.drain()
	x.sortFlips()
	for _, f := range x.flips {
		x.countRow(f.A)
		x.countRow(f.B)
	}
	return x.flips
}

// build tracks and certifies every window pair: the first Begin. Lists
// are sized to their initial length with a quarter of headroom.
func (x *Index) build() {
	x.built, x.burst = true, true
	if x.kin != nil {
		x.clock = x.tick
	}
	n := len(x.pos)
	var row []entry
	for i := 0; i < n; i++ {
		row = row[:0]
		x.win = x.window(x.cellOf[i], x.win[:0])
		for _, c := range x.win {
			for _, j := range x.bucket[c] {
				if j > int32(i) {
					row = append(row, entry{j: uint32(j)})
				}
			}
		}
		x.up[i] = append(make([]entry, 0, grown(len(row))), row...)
		if x.kin == nil {
			x.due[i] = make([]float64, len(row), grown(len(row)))
		}
	}
	links := 0
	for i := 0; i < n; i++ {
		for k := range x.up[i] {
			x.certify(int32(i), k)
		}
		x.fileNode(int32(i), x.earliest(int32(i)))
		links += len(x.flipKeys)
		x.flipKeys = x.flipKeys[:0]
	}
	// Every linked pair is an up flip; listing them from the lists, each
	// node's partners sorted, rather than from the flip keys keeps the
	// burst to one exact slice in (A, B) order.
	x.flips = make([]Flip, 0, links)
	for i := 0; i < n; i++ {
		x.entrants = x.entrants[:0]
		for _, e := range x.up[i] {
			if e.j&linkedBit != 0 {
				x.entrants = append(x.entrants, int32(e.j&idMask))
			}
		}
		sortRow(x.entrants)
		for _, j := range x.entrants {
			x.flips = append(x.flips, Flip{A: int32(i), B: j, Up: true})
		}
	}
	x.stats.WindowScans += int64(n)
	x.stats.RequeriedRows += int64(n)
}

// grown is the capacity a list of length l is given: a quarter of
// headroom, so later entrants rarely regrow it.
func grown(l int) int { return l + l/4 + 4 }

// near reports the window relation for the cells with packed
// coordinates a and b: their rectangles lie within the radius of each
// other (under the metric), so a pair in them may be linked. It is
// symmetric and depends on the cells alone.
func (x *Index) near(a, b uint32) bool {
	c := int32(x.cells) - 1
	gx := x.cellGap[int32(a>>16)-int32(b>>16)+c]
	gy := x.cellGap[int32(a&0xffff)-int32(b&0xffff)+c]
	return gx <= x.reach[gy]
}

// nearOffset is near for cells at offset (dx, dy), |dx|, |dy| ≤ span+1,
// without wrapping.
func (x *Index) nearOffset(dx, dy int) bool {
	return int32(abs(dx)) <= x.reach[abs(dy)]
}

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}

// window appends every cell near c to buf, each once.
func (x *Index) window(c int32, buf []int32) []int32 {
	cxy := x.coords(c)
	if x.wholeAxis {
		for k := int32(0); k < int32(x.cells*x.cells); k++ {
			if x.near(cxy, x.coords(k)) {
				buf = append(buf, k)
			}
		}
		return buf
	}
	cx, cy := int(cxy>>16), int(cxy&0xffff)
	for dy := -x.span; dy <= x.span; dy++ {
		r := int(x.reach[abs(dy)])
		for dx := -r; dx <= r; dx++ {
			if k, ok := x.cellAt(cx+dx, cy+dy); ok {
				buf = append(buf, k)
			}
		}
	}
	return buf
}

// strip appends to buf every cell near c but not near from, a cell
// adjacent to c (one cell apart per axis at most, as a non-teleport step
// leaves it): the offsets of those cells are tabulated once for each of
// the eight directions.
func (x *Index) strip(c, from int32, buf []int32) []int32 {
	cxy, fxy := x.coords(c), x.coords(from)
	if x.wholeAxis {
		for k := int32(0); k < int32(x.cells*x.cells); k++ {
			if kxy := x.coords(k); x.near(cxy, kxy) && !x.near(fxy, kxy) {
				buf = append(buf, k)
			}
		}
		return buf
	}
	cx, cy := int(cxy>>16), int(cxy&0xffff)
	sx, sy := x.offset(int(fxy>>16)-cx), x.offset(int(fxy&0xffff)-cy)
	for _, o := range x.strips[(sx+1)*3+sy+1] {
		if k, ok := x.cellAt(cx+int(o[0]), cy+int(o[1])); ok {
			buf = append(buf, k)
		}
	}
	return buf
}

// cellAt returns the cell at coordinates (cx, cy), wrapped on the torus;
// ok is false for coordinates off the square.
func (x *Index) cellAt(cx, cy int) (int32, bool) {
	if cx < 0 || cx >= x.cells || cy < 0 || cy >= x.cells {
		if !x.torus {
			return 0, false
		}
		cx, cy = (cx+x.cells)%x.cells, (cy+x.cells)%x.cells
	}
	return int32(cy*x.cells + cx), true
}

// offset maps a coordinate difference to the cell offset it stands for:
// itself on the square, its minimum image on the torus.
func (x *Index) offset(d int) int {
	if x.torus {
		if d > x.cells/2 {
			d -= x.cells
		} else if d < -x.cells/2 {
			d += x.cells
		}
	}
	return d
}

// shift moves node i (not a teleporter) into cell c. Its pairs with the
// nodes of the cells its window lost are marked doomed, not dropped: the
// partner may still move back into the window this Begin, and a drop
// followed by a re-add would report a pair that stayed linked as two
// flips. Begin drops the doomed pairs still apart once every node has
// moved. The nodes of the cells it gained are tracked and certified,
// unless already paired (a doomed pair coming back). Surviving pairs
// keep their certificates.
func (x *Index) shift(i, c int32) {
	old := x.cellOf[i]
	x.moveBucket(i, old, c)
	// Stamp st marks the higher nodes of the lost cells, st+1 every
	// partner in i's own list; pairs with lower nodes sit in their lists.
	st := x.freshStamp()
	x.win = x.strip(old, c, x.win[:0])
	for _, w := range x.win {
		for _, j := range x.bucket[w] {
			if j > i {
				x.mark[j] = st
			} else if k, ok := x.find(j, i); ok {
				x.doom(j, k)
			}
		}
	}
	for k := range x.up[i] {
		p := x.up[i][k].j & idMask
		if x.mark[p] == st {
			x.doom(i, k)
		}
		x.mark[p] = st + 1
	}
	x.win = x.strip(c, old, x.win[:0])
	for _, w := range x.win {
		for _, j := range x.bucket[w] {
			if j < i {
				x.add(j, i)
			} else if x.mark[j] != st+1 {
				x.track(i, j)
			}
		}
	}
	x.stats.WindowScans++
}

// doom marks the pair up[a][k] as possibly out of window, once.
func (x *Index) doom(a int32, k int) {
	if e := &x.up[a][k]; e.j&doomedBit == 0 {
		e.j |= doomedBit
		if x.ndoomed[a] == 0 {
			x.doomed = append(x.doomed, a)
		}
		x.ndoomed[a]++
	}
}

// freshStamp returns an even mark stamp no node carries yet; the odd
// stamp after it is free too.
func (x *Index) freshStamp() uint32 {
	x.stamp += 2
	if x.stamp < 2 {
		clear(x.mark)
		x.stamp = 2
	}
	return x.stamp
}

// rewindow re-checks teleporter t, moved from cell from: every
// certificate involving t is void, so its surviving pairs are
// re-evaluated, pairs whose partner is no longer near are dropped, and
// new window entrants are tracked. t's pairs with higher partners are in
// its own list; a pair (j, t) with a lower partner j, in j's list, has j
// in a cell near t's new cell or near from — or was marked doomed by j's
// own move and is settled at the end of Begin.
func (x *Index) rewindow(t, from int32) {
	// Stamp st marks t's higher partners, st+1 those still near.
	st := x.freshStamp()
	for _, e := range x.up[t] {
		x.mark[e.j&idMask] = st
	}
	x.entrants = x.entrants[:0]
	fxy := x.coords(from)
	x.win = x.window(x.cellOf[t], x.win[:0])
	for _, w := range x.win {
		for _, j := range x.bucket[w] {
			switch {
			case j == t:
			case j > t && x.mark[j] == st:
				x.mark[j] = st + 1
			case j < t && x.mayPair(j, fxy):
				if k, ok := x.find(j, t); ok {
					x.lower(j, x.certify(j, k))
					continue
				}
				fallthrough
			default:
				x.entrants = append(x.entrants, j)
			}
		}
	}
	for k := 0; k < len(x.up[t]); {
		if x.mark[x.up[t][k].j&idMask] == st {
			x.drop(t, k) // swap-removes entry k
			continue
		}
		x.certify(t, k)
		k++
	}
	x.refile(t, x.earliest(t))
	txy := x.xy[t]
	x.win = x.window(from, x.win[:0])
	// Every candidate here is near from, so it may pair with t.
	for _, w := range x.win {
		for _, j := range x.bucket[w] {
			if j >= t || x.near(txy, x.xy[j]) {
				continue
			}
			if k, ok := x.find(j, t); ok {
				x.drop(j, k)
			}
		}
	}
	for _, j := range x.entrants {
		x.track(min(t, j), max(t, j))
	}
	x.stats.WindowScans++
}

// mayPair reports whether node j may hold a pair with a teleporter that
// left the cell at fxy: j's cell is near that cell (every pair was near
// when Begin started, and a move keeps a pair near or marks it doomed),
// j has doomed pairs, or j teleported too (another rewindow may have
// paired them).
func (x *Index) mayPair(j int32, fxy uint32) bool {
	return x.near(x.xy[j], fxy) || x.ndoomed[j] > 0 || x.teleAt[j] == x.stats.Ticks
}

// add starts tracking the pair (a, b), a < b, unless it already is, and
// certifies it. A pair between a node and the cells its window gained
// exists only if a move marked it doomed earlier in the same Begin, so
// the search runs only when a has doomed pairs.
func (x *Index) add(a, b int32) {
	if x.ndoomed[a] > 0 {
		if _, ok := x.find(a, b); ok {
			return
		}
	}
	x.track(a, b)
}

// track starts tracking the new pair (a, b), a < b, and certifies it.
func (x *Index) track(a, b int32) {
	x.up[a] = grow(x.up[a], entry{j: uint32(b)})
	if x.kin == nil {
		x.due[a] = grow(x.due[a], 0)
	}
	x.lower(a, x.certify(a, len(x.up[a])-1))
}

// drop stops tracking the pair up[a][k], moving up[a]'s last entry into
// its place. Its cells are apart (every node has moved when a drop is
// made), so it is beyond the radius: a pair still marked linked flips
// down.
func (x *Index) drop(a int32, k int) {
	e := x.up[a][k]
	b := int32(e.j & idMask)
	if e.j&linkedBit != 0 {
		x.flip(a, b, false)
	}
	x.up[a] = swapRemove(x.up[a], k)
	if x.kin == nil {
		x.due[a] = swapRemove(x.due[a], k)
	}
}

// find returns the position of partner b in up[a] and whether it is
// there.
func (x *Index) find(a, b int32) (int, bool) {
	for k, e := range x.up[a] {
		if e.j&idMask == uint32(b) {
			return k, true
		}
	}
	return 0, false
}

// grow appends v, regrowing with headroom when full.
func grow[T any](l []T, v T) []T {
	if len(l) == cap(l) {
		l = append(make([]T, 0, grown(len(l)+1)), l...)
	}
	return append(l, v)
}

// swapRemove removes entry k by moving the last entry into its place.
func swapRemove[T any](l []T, k int) []T {
	last := len(l) - 1
	l[k] = l[last]
	return l[:last]
}

// certify evaluates the pair up[a][k] with the exact metric distance,
// records a flip if its link state changed, and gives it a fresh
// certificate key, which it returns.
func (x *Index) certify(a int32, k int) uint32 {
	e := &x.up[a][k]
	b := int32(e.j & idMask)
	// Delta's squared norm is Metric.Dist2, computed the same way.
	delta := x.metric.Delta(x.pos[a], x.pos[b])
	d2 := delta.Norm2()
	if linked := d2 <= x.r2; linked != (e.j&linkedBit != 0) {
		e.j ^= linkedBit
		x.flip(a, b, linked)
	}
	x.stats.PairChecks++
	d := math.Sqrt(d2)
	gap := math.Abs(d-x.radius) - x.eps
	var key, lo int64
	if x.kin == nil {
		// Drift tier: the pair's distance changes by at most the two
		// endpoints' paths, each at most the global drift budget. The key
		// rounds the certificate down; due holds it exactly.
		lo = x.clock
		key = lo
		x.due[a][k] = x.gSum
		if gap > 0 {
			x.due[a][k] = x.gSum + gap/2
			key = int64(x.due[a][k] / x.quantum)
		}
	} else {
		lo = x.tick + 1
		key = lo
		if gap > 0 {
			key += x.kin.safeTicks(x.metric, a, b, delta, d, x.radius, x.eps, gap, x.tick)
		}
	}
	e.key = uint32(min(max(key, lo), x.clock+calLen-1))
	return e.key
}

// drain scans every node filed under a key the clock has reached. Under
// the drift tier the clock is gSum/quantum, and the key that was current
// at the last drain is drained again whenever gSum grows, because a
// certificate filed there may end anywhere inside the key.
func (x *Index) drain() {
	var lo, now int64
	if x.kin != nil {
		now = x.tick
		lo = x.clock + 1
	} else {
		if x.gSum == x.drainedG {
			return
		}
		x.drainedG = x.gSum
		now = int64(x.gSum / x.quantum)
		lo = x.clock
	}
	hi := min(now, lo+calLen-1)
	x.clock = now // fresh keys are filed relative to the new clock
	for k := lo; k <= hi; k++ {
		b := k & (calLen - 1)
		i := x.heads[b]
		x.heads[b] = -1
		for i >= 0 {
			next := x.nnext[i]
			if int32(x.nkey[i]-uint32(now)) > 0 {
				x.link(i)
			} else {
				x.scan(i, now)
			}
			i = next
		}
	}
}

// scan re-checks node i's due pairs and refiles the node under its
// earliest key.
func (x *Index) scan(i int32, now int64) {
	first, n32 := uint32(x.clock+calLen-1), uint32(now)
	drift := x.kin == nil
	for k, e := range x.up[i] {
		key := e.key
		if int32(key-n32) <= 0 && (!drift || x.due[i][k] <= x.gSum) {
			key = x.certify(i, k)
		}
		if int32(key-first) < 0 {
			first = key
		}
	}
	x.nkey[i] = first
	x.link(i)
}

// earliest returns the earliest key in up[i], or the calendar's horizon
// for an empty list.
func (x *Index) earliest(i int32) uint32 {
	first := uint32(x.clock + calLen - 1)
	for _, e := range x.up[i] {
		if int32(e.key-first) < 0 {
			first = e.key
		}
	}
	return first
}

// fileNode files node i under key.
func (x *Index) fileNode(i int32, key uint32) {
	x.nkey[i] = key
	x.link(i)
}

// refile moves node i to key.
func (x *Index) refile(i int32, key uint32) {
	x.unlink(i)
	x.fileNode(i, key)
}

// lower refiles node i under key if that is earlier than its own.
func (x *Index) lower(i int32, key uint32) {
	if int32(key-x.nkey[i]) < 0 {
		x.refile(i, key)
	}
}

// link files node i in the calendar list of nkey[i].
func (x *Index) link(i int32) {
	b := x.nkey[i] & (calLen - 1)
	h := x.heads[b]
	x.nprev[i], x.nnext[i] = -1, h
	if h >= 0 {
		x.nprev[h] = i
	}
	x.heads[b] = i
}

// unlink takes node i out of its calendar list.
func (x *Index) unlink(i int32) {
	p, nx := x.nprev[i], x.nnext[i]
	if p >= 0 {
		x.nnext[p] = nx
	} else {
		x.heads[x.nkey[i]&(calLen-1)] = nx
	}
	if nx >= 0 {
		x.nprev[nx] = p
	}
}

// countRow counts row i once per Begin in RequeriedRows.
func (x *Index) countRow(i int32) {
	if x.rowSeen[i] != x.stats.Ticks {
		x.rowSeen[i] = x.stats.Ticks
		x.stats.RequeriedRows++
	}
}

// flip records that the pair (a, b) changed its link state to linked.
func (x *Index) flip(a, b int32, linked bool) {
	k := uint64(a)<<33 | uint64(b)<<1
	if linked {
		k |= 1
	}
	x.flipKeys = append(x.flipKeys, k)
}

// sortFlips turns the tick's flip keys into x.flips in ascending (A, B)
// order. A pair flips at most once per Begin: positions are fixed while
// it runs, so re-checking a pair is idempotent, and a pair dropped from
// a window is never tracked again within the same Begin (its cells stay
// apart), so the keys are distinct.
func (x *Index) sortFlips() {
	keys := x.flipKeys
	if n := len(x.pos); len(keys) < 64 || len(keys) < n/8 {
		slices.Sort(keys)
	} else {
		// Bucket by A in O(N + flips), then insertion-sort: the only
		// inversions left are within one A's few flips.
		cnt := x.byA
		clear(cnt)
		for _, k := range keys {
			cnt[k>>33+1]++
		}
		for a := 0; a < n; a++ {
			cnt[a+1] += cnt[a]
		}
		out := append(x.keysTmp[:0], keys...)
		for _, k := range keys {
			out[cnt[k>>33]] = k
			cnt[k>>33]++
		}
		for i := 1; i < len(out); i++ {
			for k, j := out[i], i; j > 0 && out[j-1] > k; j-- {
				out[j], out[j-1] = out[j-1], k
			}
		}
		x.keysTmp, keys = keys, out
		x.flipKeys = keys
	}
	x.flips = slices.Grow(x.flips, len(keys))
	for _, k := range keys {
		x.flips = append(x.flips, Flip{A: int32(k >> 33), B: int32(k>>1) & math.MaxInt32, Up: k&1 == 1})
	}
}

// safeTicks is the number of ticks after tick during which a pair with
// displacement delta (a − b) at distance d, gap beyond the eps band
// [r−eps, r+eps], provably keeps its link state: the later of the
// speed-bound certificate and the first entry into the band under the
// closed-form kinematics, within the velocity hold and, on the torus,
// before the minimum image can flip. Entering the band means reaching
// r+eps from outside or r−eps from inside, whichever side the pair is
// on. One tick of slack is surrendered to the floating-point drift
// between iterated and extrapolated positions, as the event core's
// predictor does.
func (k *kinematics) safeTicks(m geom.Metric, a, b int32, delta geom.Vec2, d, r, eps, gap float64, tick int64) int64 {
	best := k.toTicks(gap / (2 * k.vmax))
	if k.filled != tick {
		k.exact = k.model.FillKinematics(k.pop, k.vel, k.hold)
		k.filled = tick
	}
	if !k.exact {
		return best
	}
	w := k.vel[a].Sub(k.vel[b])
	window := min(k.hold[a], k.hold[b], calLen*k.dt)
	if m.Kind() == geom.MetricTorus {
		window = min(window, flipTime(delta, w, m.Side()))
	}
	if k.toTicks(window) <= best {
		return best // the closed form cannot certify longer
	}
	edge := r + eps
	if d < r {
		edge = r - eps
	}
	tc := window
	if t, ok := mobility.NextCrossing(delta, w, edge, window); ok && t < tc {
		tc = t
	}
	return max(best, k.toTicks(tc))
}

// toTicks converts a continuous safe time into whole certified ticks:
// every tick k with k·dt strictly before t is safe, less one tick of
// slack.
func (k *kinematics) toTicks(t float64) int64 {
	ft := t * k.invDt * (1 - 1e-9)
	if ft >= calLen {
		return calLen
	}
	return max(int64(ft)-1, 0)
}

// flipTime returns the earliest time any component of the minimum-image
// delta (|component| ≤ side/2 now) can reach ±side/2 at relative
// velocity w.
func flipTime(delta, w geom.Vec2, side float64) float64 {
	t := math.Inf(1)
	if w.X != 0 {
		t = min(t, (side/2-math.Abs(delta.X))/math.Abs(w.X))
	}
	if w.Y != 0 {
		t = min(t, (side/2-math.Abs(delta.Y))/math.Abs(w.Y))
	}
	return max(t, 0)
}

// sortCutoff is the row length up to which sortRow keeps insertion
// sort; above it the O(d²) shifting dominates a high-degree gather.
const sortCutoff = 16

// sortSpanWords caps the id span (in 64-bit words) sortRow sorts with a
// stack bitmap; wider rows fall back to slices.Sort.
const sortSpanWords = 64

// sortRow sorts a node's linked partners ascending in place. Ids are
// distinct, so a long list whose id span fits sortSpanWords words is
// sorted by setting one bit per id and reading the bits back in order:
// O(d + span/64), about 5× faster than slices.Sort at d ≈ 113.
func sortRow(s []int32) {
	if len(s) <= sortCutoff {
		insertionSort(s)
		return
	}
	lo, hi := s[0], s[0]
	for _, v := range s[1:] {
		lo = min(lo, v)
		hi = max(hi, v)
	}
	words := int(hi-lo)>>6 + 1
	if words > sortSpanWords {
		slices.Sort(s)
		return
	}
	var set [sortSpanWords]uint64
	for _, v := range s {
		d := uint32(v - lo)
		set[d>>6] |= 1 << (d & 63)
	}
	k := 0
	for w, word := range set[:words] {
		base := lo + int32(w<<6)
		for ; word != 0; word &= word - 1 {
			s[k] = base + int32(bits.TrailingZeros64(word))
			k++
		}
	}
}

// insertionSort sorts a short row ascending in place.
func insertionSort(s []int32) {
	for i := 1; i < len(s); i++ {
		v := s[i]
		j := i - 1
		for j >= 0 && s[j] > v {
			s[j+1] = s[j]
			j--
		}
		s[j+1] = v
	}
}
