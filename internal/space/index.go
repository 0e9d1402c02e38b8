package space

import (
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sync/atomic"

	"repro/internal/geom"
)

// PairFilter gates candidate pairs during a filtered row query. The
// engine uses it to apply radio-medium state (dead nodes, cut links)
// without the index importing the simulator.
type PairFilter interface {
	// Allow reports whether the pair (i, j) may be linked. It is always
	// called with the query row i first.
	Allow(i, j int32) bool
}

// IndexStats counts the work the incremental index performed.
type IndexStats struct {
	// Ticks is the number of Begin calls since construction.
	Ticks int64
	// RequeriedRows is the total number of rows flagged for
	// recomputation across all ticks (including the initial full build).
	RequeriedRows int64
	// SkinRebuilds is the number of row gathers that rebuilt the row's
	// skin list from the cell window because the list had expired or
	// gone stale; every other gather only filtered the list. Its ratio
	// to RequeriedRows is the skin-rebuild fraction.
	SkinRebuilds int64
	// Teleports is the number of teleport steps (border wraps under the
	// square metric) that Begin patched into the skin lists.
	Teleports int64
}

// Index is an incrementally maintained spatial index over a population of
// moving positions. Unlike Grid, which is rebuilt from scratch every
// tick, Index keeps its cell buckets current by moving only the nodes
// whose cell changed, and tells the caller which neighbor rows actually
// need recomputation ("requery") each tick. A row can be skipped soundly
// while the total displacement budget since its last recomputation stays
// below the row's cached distance margin to the nearest link flip.
//
// Each row also keeps a Verlet skin list: every node within
// radius+marginCap of the row's node when the list was built, ascending.
// While the row's drift budget since that build stays below marginCap,
// no node outside the list can have come within the radius, so a
// requeried row filters its list with exact distances instead of
// scanning the cell window, and comes out sorted without a sort. Only an
// expired or stale list is rebuilt from the window.
//
// The contract: after Begin, the adjacency row of every node i with
// Requery(i) == false is guaranteed identical to the row a full rescan
// would produce, so the caller may reuse its previous row verbatim. Rows
// are gathered with Row/RowFiltered, which return candidates sorted
// ascending — the canonical CSR representation, making the incremental
// path bit-compatible with a from-scratch rebuild.
//
// Index is not safe for concurrent mutation; Begin must run alone.
// Row/RowFiltered calls for distinct i may run concurrently (they write
// only per-row state).
type Index struct {
	metric    geom.Metric
	radius    float64
	r2        float64
	cells     int
	cellSize  float64
	span      int     // cells scanned on each side of a query cell
	wholeAxis bool    // scan window covers the whole grid
	marginCap float64 // span·cellSize − radius: the skin width s
	theta     float64 // step length above which a move counts as a teleport
	invDenom  float64 // 1/(2·radius + marginCap): sqrt-free margin lower bound
	cullR2    float64 // (radius + marginCap)²: the skin reach

	pos    []geom.Vec2 // caller's live position slice
	last   []geom.Vec2 // positions at the previous Begin
	cellOf []int32     // current cell per node
	slot   []int32     // position of node i inside bucket[cellOf[i]]
	bucket [][]int32   // per-cell member lists (order deterministic, not sorted)
	// bpos mirrors bucket with each member's position, refreshed every
	// Begin: window scans then read candidate positions sequentially
	// from the cell instead of gathering them from pos[j] all over the
	// flat array.
	bpos [][]geom.Vec2

	// Per-row requery bookkeeping: row i was last recomputed when the
	// node's cumulative path length was baseA[i] and the global drift
	// budget was baseG[i]; it must be recomputed once
	// (stepSum[i]−baseA[i]) + (gSum−baseG[i]) reaches margin[i].
	stepSum []float64
	baseA   []float64
	baseG   []float64
	margin  []float64
	gSum    float64

	// Per-row skin lists, built when the path length was skinA[i] and
	// the global drift budget skinG[i]; a list expires once
	// (stepSum[i]−skinA[i]) + (gSum−skinG[i]) reaches marginCap, and a
	// stale one (its own node teleported, or a fallback tick) is rebuilt
	// on the next gather.
	skin         [][]int32
	skinA        []float64
	skinG        []float64
	stale        []bool
	skinMean     int // mean list length of a uniform placement
	skinRebuilds atomic.Int64

	requery  []bool
	telep    []int32     // scratch: this tick's teleporters
	teleFrom []geom.Vec2 // scratch: their pre-move positions
	near     []int32     // scratch: Begin's neighborhood queries

	stats IndexStats
}

// indexBeta is the slack factor applied to the query radius when sizing
// the scan window: the window reaches radius·(1+indexBeta), so the skin
// width marginCap is about indexBeta·radius. A wider skin lets lists
// survive more ticks but makes each one longer to filter: on Figures 1–3
// 0.3 rebuilt 20% of requeried rows' lists against 35% at 0.15, yet ran
// them in the same time, so the narrower, smaller lists stay.
const indexBeta = 0.15

// indexSpan is the cell count the slackened radius is split into per
// axis: finer cells hug the skin disc tighter, so a rebuild visits
// ~π(r+cap)² worth of candidates instead of the 9 r² of a radius-sized
// 3×3 block.
const indexSpan = 2

// NewIndex builds an incremental index over pos, tuned for neighbor
// queries of the given radius. The slice is retained and read on every
// Begin; the caller mutates positions in place between ticks. All rows
// start flagged for requery with stale skin lists, so the first gather
// performs the full build.
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
		pos:      pos,
		last:     make([]geom.Vec2, n),
		cellOf:   make([]int32, n),
		slot:     make([]int32, n),
		bucket:   make([][]int32, cells*cells),
		bpos:     make([][]geom.Vec2, cells*cells),
		stepSum:  make([]float64, n),
		baseA:    make([]float64, n),
		baseG:    make([]float64, n),
		margin:   make([]float64, n),
		skin:     make([][]int32, n),
		skinA:    make([]float64, n),
		skinG:    make([]float64, n),
		stale:    make([]bool, n),
		requery:  make([]bool, n),
	}
	// floor+1 rather than ceil keeps the skin strictly positive when the
	// radius is an exact multiple of the cell size.
	x.span = int(math.Floor(x.radius/x.cellSize)) + 1
	x.wholeAxis = 2*x.span+1 >= x.cells
	x.marginCap = float64(x.span)*x.cellSize - x.radius
	x.theta = x.cellSize / 2
	x.invDenom = 1 / (2*x.radius + x.marginCap)
	reach := x.radius + x.marginCap
	x.cullR2 = reach * reach
	copy(x.last, pos)
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
		capc := int(cnt) + int(cnt)/2 + 4
		x.bucket[c] = make([]int32, 0, capc)
		x.bpos[c] = make([]geom.Vec2, 0, capc)
	}
	for i := range pos {
		c := int32(x.cellIndex(pos[i]))
		x.cellOf[i] = c
		x.slot[i] = int32(len(x.bucket[c]))
		x.bucket[c] = append(x.bucket[c], int32(i))
		x.bpos[c] = append(x.bpos[c], pos[i])
		x.requery[i] = true
		x.stale[i] = true
	}
	// Size every skin list for 1.5× the mean list length of a uniform
	// placement; freshSkin regrows the lists that outgrow it.
	x.skinMean = int(float64(n-1) * min(1, math.Pi*x.cullR2/(side*side)))
	for i := range x.skin {
		x.skin[i] = make([]int32, 0, x.skinCap(0))
	}
	x.stats.RequeriedRows += int64(n)
	return x, nil
}

// Radius reports the query radius the index was tuned for.
func (x *Index) Radius() float64 { return x.radius }

// Stats returns the accumulated work counters.
func (x *Index) Stats() IndexStats {
	st := x.stats
	st.SkinRebuilds = x.skinRebuilds.Load()
	return st
}

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
	bp := x.bpos[oldC]
	bp[s] = bp[lastIdx]
	x.bpos[oldC] = bp[:lastIdx]

	x.slot[i] = int32(len(x.bucket[newC]))
	x.bucket[newC] = append(x.bucket[newC], i)
	x.bpos[newC] = append(x.bpos[newC], x.pos[i])
	x.cellOf[i] = newC
}

// Begin advances the index one tick: it measures every node's step,
// patches cell membership for boundary crossers, patches the skin lists
// around teleporters, and decides which rows need recomputation. With
// forceAll (radio-medium pathologies can flip links without any motion)
// every row is flagged. Returns the number of flagged rows; zero means
// the adjacency provably did not change.
func (x *Index) Begin(forceAll bool) int {
	n := len(x.pos)
	x.stats.Ticks++
	x.telep = x.telep[:0]
	x.teleFrom = x.teleFrom[:0]
	maxStep := 0.0
	for i := 0; i < n; i++ {
		d := x.metric.Dist(x.last[i], x.pos[i])
		x.stepSum[i] += d
		oldC := x.cellOf[i]
		newC := int32(x.cellIndex(x.pos[i]))
		if newC != oldC {
			x.moveBucket(int32(i), oldC, newC)
		}
		if d > x.theta {
			// A teleport (e.g. a border wrap under the square metric):
			// excluded from the shared drift budget, patched into the
			// skin lists below.
			x.telep = append(x.telep, int32(i))
			x.teleFrom = append(x.teleFrom, x.last[i])
		} else if d > maxStep {
			maxStep = d
		}
		x.last[i] = x.pos[i]
		x.bpos[x.cellOf[i]][x.slot[i]] = x.pos[i]
	}
	x.gSum += maxStep
	x.stats.Teleports += int64(len(x.telep))

	if len(x.telep) > n/16 || maxStep >= x.marginCap {
		// Too many teleporters to patch, or a step that spends every
		// skin at once (and outreaches the window the old-position
		// query scans): start every row and every list afresh.
		for i := range x.requery {
			x.requery[i] = true
			x.stale[i] = true
		}
		x.stats.RequeriedRows += int64(n)
		return n
	}
	for i := 0; i < n; i++ {
		x.requery[i] = forceAll || x.stepSum[i]-x.baseA[i]+x.gSum-x.baseG[i] >= x.margin[i]
	}
	for _, j := range x.telep {
		x.stale[j] = true
		x.requery[j] = true
	}
	oldReach := x.radius + maxStep
	for k, j := range x.telep {
		// Every row that held j last tick lies within radius of j's old
		// position as it was then, and has since moved at most maxStep.
		x.near = x.within(x.teleFrom[k], oldReach*oldReach, j, x.near[:0])
		for _, i := range x.near {
			x.requery[i] = true
		}
		// Every row that j can reach before that row's skin expires lies
		// within radius+marginCap of j's new position: j joins its list.
		x.near = x.within(x.pos[j], x.cullR2, j, x.near[:0])
		for _, i := range x.near {
			x.requery[i] = true
			x.insertSkin(i, j)
		}
	}
	dirty := 0
	for _, r := range x.requery {
		if r {
			dirty++
		}
	}
	x.stats.RequeriedRows += int64(dirty)
	return dirty
}

// insertSkin adds j to row i's skin list, keeping it ascending. A stale
// list is rebuilt on its next gather anyway, and a list that already
// holds j (a superset entry from before the teleport) stays as it is.
func (x *Index) insertSkin(i, j int32) {
	if x.stale[i] {
		return
	}
	s := x.skin[i]
	k, found := slices.BinarySearch(s, j)
	if found {
		return
	}
	x.skin[i] = slices.Insert(s, k, j)
}

// Requery reports whether row i was flagged by the last Begin.
func (x *Index) Requery(i int) bool { return x.requery[i] }

// Row appends the indices of all nodes within the query radius of node i
// (excluding i), sorted ascending, and returns the extended slice. It
// also refreshes row i's requery margin: a lower bound on the distance
// any node would have to drift to flip its link state with i. Listed
// candidates contribute |d²−r²|/(2r+cap) ≤ |d−r| (no sqrt per
// candidate); unlisted nodes sit at least cap − consumed beyond the
// radius, where consumed is the skin budget already spent, so the
// margin is capped there — which also absorbs the quotient's
// overestimate for listed candidates beyond radius+cap. Safe to call
// concurrently for distinct i.
func (x *Index) Row(i int, out []int32) []int32 {
	consumed := x.freshSkin(i)
	p := x.pos[i]
	// The raw |d²−r²| minimum is tracked un-normalized: one multiply at
	// the end instead of one per candidate.
	mRaw := math.Inf(1)
	r2 := x.r2
	for _, j := range x.skin[i] {
		d2 := x.metric.Dist2(p, x.pos[j])
		lb := d2 - r2
		if lb < 0 {
			lb = -lb
		}
		if lb < mRaw {
			mRaw = lb
		}
		if d2 <= r2 {
			out = append(out, j)
		}
	}
	x.margin[i] = min(mRaw*x.invDenom, x.marginCap-consumed)
	x.baseA[i] = x.stepSum[i]
	x.baseG[i] = x.gSum
	return out
}

// RowFiltered is Row with a pair filter applied (radio-medium state) and
// no margin refresh: when a medium is active every tick requeries every
// row, so margins are never consulted. The skin lists stay valid across
// those forced ticks, so the filter runs only on listed candidates
// already inside the radius. Safe to call concurrently for distinct i.
func (x *Index) RowFiltered(i int, out []int32, f PairFilter) []int32 {
	x.freshSkin(i)
	p := x.pos[i]
	for _, j := range x.skin[i] {
		if x.metric.Dist2(p, x.pos[j]) <= x.r2 && f.Allow(int32(i), j) {
			out = append(out, j)
		}
	}
	return out
}

// freshSkin rebuilds row i's skin list when it is stale or expired and
// returns the drift budget spent since the list was built.
func (x *Index) freshSkin(i int) float64 {
	consumed := (x.stepSum[i] - x.skinA[i]) + (x.gSum - x.skinG[i])
	if !x.stale[i] && consumed < x.marginCap {
		return consumed
	}
	old := x.skin[i]
	s := x.within(x.pos[i], x.cullR2, int32(i), old[:0])
	if cap(s) != cap(old) {
		// The list outgrew its capacity: leave headroom, as the buckets
		// do, so teleport insertions and later rebuilds reuse it.
		s = append(make([]int32, 0, x.skinCap(len(s))), s...)
	}
	if !x.wholeAxis {
		sortRow(s)
	}
	x.skin[i] = s
	x.skinA[i] = x.stepSum[i]
	x.skinG[i] = x.gSum
	x.stale[i] = false
	x.skinRebuilds.Add(1)
	return 0
}

// skinCap is the capacity a skin list of length l is given: 50%
// headroom over l, but never less than over the mean length, so a list
// first built in a sparse region does not keep outgrowing itself as its
// node drifts into crowded ones.
func (x *Index) skinCap(l int) int {
	return min(max(l, x.skinMean)*3/2+8, len(x.pos))
}

// within appends to dst every node other than skip within √reach2 of p
// (reach at most radius+marginCap) and returns the extended slice. It is
// the index's only spatial scan: skin rebuilds and Begin's teleport
// patch both use it. A whole-axis index visits every node in id order,
// so its output is ascending; otherwise the order follows the window.
func (x *Index) within(p geom.Vec2, reach2 float64, skip int32, dst []int32) []int32 {
	if x.wholeAxis {
		for j, q := range x.pos {
			if int32(j) != skip && x.metric.Dist2(p, q) <= reach2 {
				dst = append(dst, int32(j))
			}
		}
		return dst
	}
	var wbuf [maxWindowCells]winCell
	for _, c := range x.windowCells(p, reach2, wbuf[:0]) {
		b := x.bucket[c.first]
		bp := x.bpos[c.first][:len(b)]
		for k, j := range b {
			q := bp[k]
			dx := p.X - q.X + c.ox
			dy := p.Y - q.Y + c.oy
			if dx*dx+dy*dy <= reach2 && j != skip {
				dst = append(dst, j)
			}
		}
	}
	return dst
}

// maxWindowCells bounds the scan window: span ≤ 2 by construction
// (cellSize ≥ radius·(1+indexBeta)/indexSpan, so floor(radius/cellSize)
// < indexSpan), giving at most (2·span+1)² = 25 cells. The callers'
// stack buffers use this; windowCells itself appends, so even a
// miscounted bound would only cost a heap spill, never correctness.
const maxWindowCells = (2*indexSpan + 1) * (2*indexSpan + 1)

// winCell is one non-culled cell of a query window: the bucket index
// plus the wrap correction applied to candidate deltas.
type winCell struct {
	first  int32
	ox, oy float64
}

// windowCells appends every cell of the scan window around p whose
// rectangle lies within √reach2 of p to buf, each carrying the wrap
// correction (ox, oy) ∈ {−side, 0, +side}² for that cell's image:
// candidate deltas are then dx = p.X − q.X + ox with no per-candidate
// min-image branch or metric dispatch. Inside a non-wholeAxis window
// (cells ≥ 2·span+2) a wrapped cell's nodes satisfy |p−q| ∈ [side/2,
// side), exactly where the torus metric applies the same ±side shift,
// and that addition is exact by Sterbenz's lemma, so the computed d²
// equals Metric.Dist2.
func (x *Index) windowCells(p geom.Vec2, reach2 float64, buf []winCell) []winCell {
	cs := x.cellSize
	side := x.metric.Side()
	cx := int(p.X / cs)
	cy := int(p.Y / cs)
	if cx >= x.cells {
		cx = x.cells - 1
	}
	if cy >= x.cells {
		cy = x.cells - 1
	}
	wrap := x.metric.Kind() == geom.MetricTorus
	for dy := -x.span; dy <= x.span; dy++ {
		y := cy + dy
		// Rectangle distance along Y in unwrapped coordinates; valid on
		// the torus too because the window spans less than half the
		// region (non-wholeAxis), so no wrapped image is closer.
		dym := 0.0
		if lo := float64(y) * cs; p.Y < lo {
			dym = lo - p.Y
		} else if hi := float64(y+1) * cs; p.Y > hi {
			dym = p.Y - hi
		}
		oy := 0.0
		if y < 0 {
			if !wrap {
				continue
			}
			y += x.cells
			oy = side // q sits on the high side; p−q corrects upward
		} else if y >= x.cells {
			if !wrap {
				continue
			}
			y -= x.cells
			oy = -side
		}
		rowBase := int32(y * x.cells)
		dym2 := dym * dym
		for dx := -x.span; dx <= x.span; dx++ {
			cxx := cx + dx
			dxm := 0.0
			if lo := float64(cxx) * cs; p.X < lo {
				dxm = lo - p.X
			} else if hi := float64(cxx+1) * cs; p.X > hi {
				dxm = p.X - hi
			}
			if dxm*dxm+dym2 > reach2 {
				continue
			}
			ox := 0.0
			if cxx < 0 {
				if !wrap {
					continue
				}
				cxx += x.cells
				ox = side
			} else if cxx >= x.cells {
				if !wrap {
					continue
				}
				cxx -= x.cells
				ox = -side
			}
			buf = append(buf, winCell{first: rowBase + int32(cxx), ox: ox, oy: oy})
		}
	}
	return buf
}

// sortCutoff is the row length up to which sortRow keeps insertion
// sort; above it the O(d²) shifting dominates a high-degree gather.
const sortCutoff = 16

// sortSpanWords caps the id span (in 64-bit words) sortRow sorts with a
// stack bitmap; wider rows fall back to slices.Sort.
const sortSpanWords = 64

// sortRow sorts a rebuilt skin list ascending in place. Ids are
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
