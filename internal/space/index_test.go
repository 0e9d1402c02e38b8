package space

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/geom"
)

// bruteRow computes node i's neighbor row the obvious O(N) way; ascending
// order falls out of the scan order.
func bruteRow(metric geom.Metric, pos []geom.Vec2, radius float64, i int, filter func(i, j int32) bool) []int32 {
	r2 := radius * radius
	var row []int32
	for j := range pos {
		if j == i {
			continue
		}
		if filter != nil && !filter(int32(i), int32(j)) {
			continue
		}
		if metric.Dist2(pos[i], pos[j]) <= r2 {
			row = append(row, int32(j))
		}
	}
	return row
}

// stepChurn advances every position with a per-node heading at the
// given speed (wrap-heavy at high speed: many nodes cross cell
// boundaries and the border seam every tick) and teleports each node
// outright with probability tele.
func stepChurn(rng *rand.Rand, metric geom.Metric, pos []geom.Vec2, dir []float64, speed, tele float64) {
	side := metric.Side()
	for i := range pos {
		if rng.Float64() < tele {
			pos[i] = geom.Vec2{X: rng.Float64() * side, Y: rng.Float64() * side}
			dir[i] = rng.Float64() * 2 * math.Pi
			continue
		}
		p := pos[i].Add(geom.Heading(dir[i]).Scale(speed))
		pos[i], _ = metric.Wrap(p)
	}
}

// TestIndexMatchesRescanHighChurn is the incremental-maintenance property
// test: step the index and a from-scratch rescan side by side and demand
// identical adjacency every tick. Rows not flagged for requery are
// reused from the previous tick — exactly the engine's reuse contract —
// so any unsoundness in the margins, the skin lists or the teleport
// patch shows up as a divergence here. The cases cover boundary-crossing
// churn, slow drift where skin lists survive many ticks, the filtered
// (radio-medium) path where every row is forced each tick, and teleport
// bursts past the N/16 fallback.
func TestIndexMatchesRescanHighChurn(t *testing.T) {
	cases := []struct {
		name     string
		kind     geom.MetricKind
		n        int
		side     float64
		radius   float64
		speed    float64
		tele     float64 // per-node teleport probability per tick
		burst    int     // every burst ticks, teleport n/8 nodes at once
		filtered bool    // Begin(true) + RowFiltered, as under a medium
		// maxRebuilt bounds skin rebuilds per requeried row, where the
		// case is meant to keep lists alive (0: unchecked).
		maxRebuilt float64
	}{
		{name: "square", kind: geom.MetricSquare, n: 120, side: 10, radius: 1.5, speed: 0.12, tele: 0.01},
		{name: "torus", kind: geom.MetricTorus, n: 120, side: 10, radius: 1.5, speed: 0.12, tele: 0.01},
		{name: "square-fast", kind: geom.MetricSquare, n: 80, side: 8, radius: 1.0, speed: 0.35, tele: 0.01},
		{name: "torus-whole-axis", kind: geom.MetricTorus, n: 40, side: 2, radius: 1.5, speed: 0.2, tele: 0.01},
		{name: "square-whole-axis", kind: geom.MetricSquare, n: 40, side: 2, radius: 1.5, speed: 0.2, tele: 0.01},
		{name: "square-slow-drift", kind: geom.MetricSquare, n: 200, side: 10, radius: 1.5, speed: 0.004, tele: 0.002, maxRebuilt: 0.2},
		{name: "torus-filtered", kind: geom.MetricTorus, n: 120, side: 10, radius: 1.5, speed: 0.03, tele: 0.01, filtered: true, maxRebuilt: 0.5},
		{name: "square-teleport-burst", kind: geom.MetricSquare, n: 160, side: 10, radius: 1.5, speed: 0.02, tele: 0.005, burst: 7},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(7))
			metric, err := geom.NewMetric(tc.kind, tc.side)
			if err != nil {
				t.Fatal(err)
			}
			pos := make([]geom.Vec2, tc.n)
			dir := make([]float64, tc.n)
			for i := range pos {
				pos[i] = geom.Vec2{X: rng.Float64() * tc.side, Y: rng.Float64() * tc.side}
				dir[i] = rng.Float64() * 2 * math.Pi
			}
			x, err := NewIndex(metric, tc.radius, pos)
			if err != nil {
				t.Fatal(err)
			}
			var filter func(i, j int32) bool
			if tc.filtered {
				filter = parityFilter{}.Allow
			}
			gather := func(i int, buf []int32) []int32 {
				if tc.filtered {
					return x.RowFiltered(i, buf, parityFilter{})
				}
				return x.Row(i, buf)
			}
			rows := make([][]int32, tc.n)
			for i := range rows {
				if !x.Requery(i) {
					t.Fatalf("row %d not flagged after construction", i)
				}
				rows[i] = gather(i, nil)
			}
			start := x.Stats()
			fallbacks := 0 // ticks whose teleporters exceed the N/16 patch limit
			for tick := 1; tick <= 200; tick++ {
				stepChurn(rng, metric, pos, dir, tc.speed, tc.tele)
				if tc.burst > 0 && tick%tc.burst == 0 {
					for _, i := range rng.Perm(tc.n)[:tc.n/8] {
						pos[i] = geom.Vec2{X: rng.Float64() * tc.side, Y: rng.Float64() * tc.side}
					}
				}
				before := x.Stats().Teleports
				x.Begin(tc.filtered)
				if x.Stats().Teleports-before > int64(tc.n/16) {
					fallbacks++
				}
				for i := 0; i < tc.n; i++ {
					if x.Requery(i) {
						rows[i] = gather(i, rows[i][:0])
					}
					want := bruteRow(metric, pos, tc.radius, i, filter)
					if !slices.Equal(rows[i], want) {
						t.Fatalf("tick %d row %d diverged (requeried=%v):\nincremental %v\nrescan      %v",
							tick, i, x.Requery(i), rows[i], want)
					}
				}
			}
			st := x.Stats()
			requeried := st.RequeriedRows - start.RequeriedRows
			rebuilt := st.SkinRebuilds - start.SkinRebuilds
			t.Logf("requeried %d rows, rebuilt %d skin lists, %d teleports, %d fallback ticks",
				requeried, rebuilt, st.Teleports, fallbacks)
			if tc.maxRebuilt > 0 && float64(rebuilt) > tc.maxRebuilt*float64(requeried) {
				t.Errorf("rebuilt %d skin lists for %d requeried rows, want at most %.0f%%; lists are not surviving",
					rebuilt, requeried, 100*tc.maxRebuilt)
			}
			if tc.burst > 0 && fallbacks < 200/tc.burst {
				t.Errorf("teleport bursts crossed the N/16 fallback on %d ticks, want at least %d", fallbacks, 200/tc.burst)
			}
		})
	}
}

// TestIndexCostScalesWithMobility pins the payoff: the fraction of rows
// requeried per tick tracks node speed, not population — an order of
// magnitude less motion must buy roughly an order of magnitude fewer
// requeries (the correctness of the reused rows is covered by the
// high-churn test above, which shares the same code path).
func TestIndexCostScalesWithMobility(t *testing.T) {
	requeryFrac := func(step float64) float64 {
		rng := rand.New(rand.NewSource(5))
		metric, err := geom.NewMetric(geom.MetricTorus, 10)
		if err != nil {
			t.Fatal(err)
		}
		const n, radius, ticks = 400, 1.5, 200
		pos := make([]geom.Vec2, n)
		dir := make([]float64, n)
		for i := range pos {
			pos[i] = geom.Vec2{X: rng.Float64() * 10, Y: rng.Float64() * 10}
			dir[i] = rng.Float64() * 2 * math.Pi
		}
		x, err := NewIndex(metric, radius, pos)
		if err != nil {
			t.Fatal(err)
		}
		var buf []int32
		for i := 0; i < n; i++ {
			x.Row(i, buf[:0])
		}
		for tick := 0; tick < ticks; tick++ {
			for i := range pos {
				p := pos[i].Add(geom.Heading(dir[i]).Scale(step))
				pos[i], _ = metric.Wrap(p)
			}
			x.Begin(false)
			for i := 0; i < n; i++ {
				if x.Requery(i) {
					x.Row(i, buf[:0])
				}
			}
		}
		requeried := x.Stats().RequeriedRows - n // exclude the initial build
		return float64(requeried) / float64(ticks*n)
	}
	// 0.0025 is the step benchmark's per-tick displacement (v=0.05,
	// dt=0.05); a full rescan is 100% by definition.
	base := requeryFrac(0.0025)
	slow := requeryFrac(0.00025)
	if base > 0.7 {
		t.Errorf("bench-mobility requery fraction %.0f%%; incremental path not engaging", 100*base)
	}
	if slow > base/3 {
		t.Errorf("10× slower mobility only cut the requery fraction from %.1f%% to %.1f%%; cost is not mobility-bound",
			100*base, 100*slow)
	}
	t.Logf("requery fraction: %.1f%% at bench speed, %.1f%% at 1/10 speed", 100*base, 100*slow)
}

type parityFilter struct{}

func (parityFilter) Allow(i, j int32) bool { return (i+j)%2 == 0 }

// TestIndexRowFilteredMatchesRescan pins the filtered (radio-medium) path:
// with a filter active the engine requeries every row every tick, so only
// gather correctness is at stake.
func TestIndexRowFilteredMatchesRescan(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	metric, err := geom.NewMetric(geom.MetricTorus, 10)
	if err != nil {
		t.Fatal(err)
	}
	const n, radius = 90, 1.4
	pos := make([]geom.Vec2, n)
	dir := make([]float64, n)
	for i := range pos {
		pos[i] = geom.Vec2{X: rng.Float64() * 10, Y: rng.Float64() * 10}
		dir[i] = rng.Float64() * 2 * math.Pi
	}
	x, err := NewIndex(metric, radius, pos)
	if err != nil {
		t.Fatal(err)
	}
	var buf []int32
	allow := func(i, j int32) bool { return parityFilter{}.Allow(i, j) }
	for tick := 0; tick < 80; tick++ {
		if tick > 0 {
			stepChurn(rng, metric, pos, dir, 0.15, 0.01)
			if dirty := x.Begin(true); dirty != n {
				t.Fatalf("tick %d: forceAll flagged %d rows, want %d", tick, dirty, n)
			}
		}
		for i := 0; i < n; i++ {
			got := x.RowFiltered(i, buf[:0], parityFilter{})
			want := bruteRow(metric, pos, radius, i, allow)
			if !slices.Equal(got, want) {
				t.Fatalf("tick %d filtered row %d diverged:\ngot  %v\nwant %v", tick, i, got, want)
			}
		}
	}
}

// TestIndexStationaryZeroRequeries is the fast-path regression test: when
// nothing moves, Begin must flag zero rows — per-tick topology cost drops
// to the O(N) bookkeeping pass, with no distance checks at all.
func TestIndexStationaryZeroRequeries(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	metric, err := geom.NewMetric(geom.MetricSquare, 10)
	if err != nil {
		t.Fatal(err)
	}
	const n = 100
	pos := make([]geom.Vec2, n)
	for i := range pos {
		pos[i] = geom.Vec2{X: rng.Float64() * 10, Y: rng.Float64() * 10}
	}
	x, err := NewIndex(metric, 1.5, pos)
	if err != nil {
		t.Fatal(err)
	}
	var buf []int32
	for i := 0; i < n; i++ {
		x.Row(i, buf[:0]) // initial build refreshes every margin
	}
	base := x.Stats().RequeriedRows
	for tick := 0; tick < 100; tick++ {
		if dirty := x.Begin(false); dirty != 0 {
			t.Fatalf("tick %d: stationary network flagged %d rows for requery", tick, dirty)
		}
	}
	if got := x.Stats().RequeriedRows; got != base {
		t.Errorf("stationary run accumulated requeries: %d → %d", base, got)
	}
}

// TestSortRowMatchesSort checks every sortRow path — insertion sort for
// short rows, the bitmap for long rows of narrow id span (up to the
// exact sortSpanWords boundary) and slices.Sort beyond it — against
// slices.Sort on shuffled sets of distinct ids.
func TestSortRowMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	const maxSpan = sortSpanWords * 64
	for _, tc := range []struct{ d, span, base int }{
		{0, 1, 0}, {1, 1, 5}, {sortCutoff, 40, 0}, {sortCutoff + 1, 40, 3},
		{113, 400, 0}, {113, 400, 63}, {113, 400, 64}, {64, 64, 128},
		{200, maxSpan, 7}, {200, maxSpan + 1, 7}, {150, 100000, 1},
	} {
		for rep := 0; rep < 20; rep++ {
			ids := rng.Perm(tc.span)[:tc.d]
			if tc.d >= 2 {
				// Pin both ends so the span is exactly tc.span.
				ids[0], ids[1] = 0, tc.span-1
				seen := map[int]bool{}
				uniq := ids[:0]
				for _, v := range ids {
					if !seen[v] {
						seen[v] = true
						uniq = append(uniq, v)
					}
				}
				ids = uniq
				rng.Shuffle(len(ids), func(i, j int) { ids[i], ids[j] = ids[j], ids[i] })
			}
			got := make([]int32, len(ids))
			for k, v := range ids {
				got[k] = int32(tc.base + v)
			}
			want := slices.Clone(got)
			slices.Sort(want)
			sortRow(got)
			if !slices.Equal(got, want) {
				t.Fatalf("d=%d span=%d base=%d: sortRow = %v, want %v", tc.d, tc.span, tc.base, got, want)
			}
		}
	}
}

// TestIndexTeleportPatch pins three pieces of the skin invariant that
// a random walk exercises only by chance, each on a hand-built layout
// (square 10×10, radius 1.5, skin width s = marginCap):
//
//   - teleport-in: a node jumps next to a stationary row whose skin list
//     does not hold it; the row is only correct if the teleporter is
//     inserted into its list at the new position;
//   - teleport-out: a node jumps away from a stationary neighbor whose
//     margin is wide; the row only drops it if rows near the old
//     position are requeried;
//   - margin-cap: a row is requeried with 0.8·s of its skin budget spent
//     while an unlisted node approaches; the row only catches it in time
//     if the new margin is capped by s − consumed, not by s.
func TestIndexTeleportPatch(t *testing.T) {
	metric, err := geom.NewMetric(geom.MetricSquare, 10)
	if err != nil {
		t.Fatal(err)
	}
	const radius = 1.5
	// layout appends stationary filler along the top edge, far from the
	// action, so that one teleporter stays within the N/16 patch limit.
	layout := func(pts ...geom.Vec2) []geom.Vec2 {
		for k := 0; k < 16; k++ {
			pts = append(pts, geom.Vec2{X: 0.5 + 0.6*float64(k), Y: 9.8})
		}
		return pts
	}
	probe, err := NewIndex(metric, radius, layout())
	if err != nil {
		t.Fatal(err)
	}
	s := probe.marginCap
	run := func(t *testing.T, pos []geom.Vec2, ticks int, move func(tick int)) *Index {
		x, err := NewIndex(metric, radius, pos)
		if err != nil {
			t.Fatal(err)
		}
		rows := make([][]int32, len(pos))
		for i := range rows {
			rows[i] = x.Row(i, nil)
		}
		for tick := 1; tick <= ticks; tick++ {
			move(tick)
			x.Begin(false)
			for i := range rows {
				if x.Requery(i) {
					rows[i] = x.Row(i, rows[i][:0])
				}
				if want := bruteRow(metric, pos, radius, i, nil); !slices.Equal(rows[i], want) {
					t.Fatalf("tick %d row %d diverged (requeried=%v): incremental %v, rescan %v",
						tick, i, x.Requery(i), rows[i], want)
				}
			}
		}
		return x
	}
	t.Run("teleport-in", func(t *testing.T) {
		// Node 0 is far from everyone, then jumps 1 from node 1.
		pos := layout(geom.Vec2{X: 9, Y: 9}, geom.Vec2{X: 3, Y: 3}, geom.Vec2{X: 2, Y: 3}, geom.Vec2{X: 5.5, Y: 3})
		x := run(t, pos, 3, func(tick int) {
			if tick == 2 {
				pos[0] = geom.Vec2{X: 4, Y: 3}
			}
		})
		if x.Stats().Teleports != 1 {
			t.Fatalf("teleports = %d, want 1", x.Stats().Teleports)
		}
	})
	t.Run("teleport-out", func(t *testing.T) {
		// Node 0 sits 0.5 from node 1 (margin 2/(3+s) > s), then jumps far.
		pos := layout(geom.Vec2{X: 3.5, Y: 3}, geom.Vec2{X: 3, Y: 3}, geom.Vec2{X: 7, Y: 7}, geom.Vec2{X: 7.5, Y: 7})
		run(t, pos, 3, func(tick int) {
			if tick == 2 {
				pos[0] = geom.Vec2{X: 8.5, Y: 2}
			}
		})
	})
	t.Run("margin-cap", func(t *testing.T) {
		// Row 0 lists node 1 at the distance whose margin is 0.8·s, so it
		// is requeried on tick 40 with 0.8·s of its skin spent. Node 2
		// starts unlisted at radius + 1.05·s and closes in at s/50 per
		// tick, entering the radius on tick 53. A margin capped by s
		// would leave row 0 unrequeried until tick 80.
		d1 := math.Sqrt(radius*radius + 0.8*s*(2*radius+s))
		pos := layout(geom.Vec2{X: 5, Y: 5}, geom.Vec2{X: 5 - d1, Y: 5}, geom.Vec2{X: 5 + radius + 1.05*s, Y: 5})
		run(t, pos, 100, func(int) { pos[2].X -= s / 50 })
	})
}

// TestIndexZeroSteadyStateAllocs pins the index's share of the
// allocation-free tick loop: once buckets and skin lists have grown to
// working size, Begin plus a gather of every flagged row allocates
// nothing — including ticks whose teleporters are patched into the
// skin lists.
func TestIndexZeroSteadyStateAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	metric, err := geom.NewMetric(geom.MetricSquare, 10)
	if err != nil {
		t.Fatal(err)
	}
	const n = 400
	pos := make([]geom.Vec2, n)
	dir := make([]float64, n)
	for i := range pos {
		pos[i] = geom.Vec2{X: rng.Float64() * 10, Y: rng.Float64() * 10}
		dir[i] = rng.Float64() * 2 * math.Pi
	}
	x, err := NewIndex(metric, 1.5, pos)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]int32, 0, 4*n)
	tick := func() {
		stepChurn(rng, metric, pos, dir, 0.01, 0.005)
		x.Begin(false)
		for i := 0; i < n; i++ {
			if x.Requery(i) {
				buf = x.Row(i, buf[:0])
			}
		}
	}
	for k := 0; k < 300; k++ {
		tick()
	}
	before := x.Stats()
	if allocs := testing.AllocsPerRun(200, tick); allocs != 0 {
		t.Errorf("Begin + Row allocates %v times per tick in steady state, want 0", allocs)
	}
	if st := x.Stats(); st.Teleports == before.Teleports || st.SkinRebuilds == before.SkinRebuilds {
		t.Errorf("measured ticks patched %d teleports and rebuilt %d skin lists; want both > 0",
			st.Teleports-before.Teleports, st.SkinRebuilds-before.SkinRebuilds)
	}
}
