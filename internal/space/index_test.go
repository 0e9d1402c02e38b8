package space

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/geom"
	"repro/internal/mobility"
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

// certified is the adjacency a caller of Begin maintains: sorted rows
// patched with each Begin's flips.
type certified [][]int32

// apply patches the rows with flips, failing on flips out of ascending
// (A, B) order, on A ≥ B, and on flips that do not change the rows (an
// up for a present link, a down for an absent one).
func (c certified) apply(t *testing.T, flips []Flip) {
	t.Helper()
	for k, f := range flips {
		if f.A >= f.B {
			t.Fatalf("flip %+v: want A < B", f)
		}
		if k > 0 {
			if p := flips[k-1]; p.A > f.A || (p.A == f.A && p.B >= f.B) {
				t.Fatalf("flips out of ascending (A, B) order: %+v then %+v", p, f)
			}
		}
		for _, e := range [2][2]int32{{f.A, f.B}, {f.B, f.A}} {
			row := c[e[0]]
			at, found := slices.BinarySearch(row, e[1])
			switch {
			case f.Up && !found:
				c[e[0]] = slices.Insert(row, at, e[1])
			case !f.Up && found:
				c[e[0]] = slices.Delete(row, at, at+1)
			default:
				t.Fatalf("flip %+v does not change row %d = %v", f, e[0], row)
			}
		}
	}
}

// matchesRescan fails unless every row equals the brute-force rescan.
func (c certified) matchesRescan(t *testing.T, metric geom.Metric, pos []geom.Vec2, radius float64, tick int) {
	t.Helper()
	for i := range c {
		if want := bruteRow(metric, pos, radius, i, nil); !slices.Equal(c[i], want) {
			t.Fatalf("tick %d row %d diverged:\ncertified %v\nrescan    %v", tick, i, c[i], want)
		}
	}
}

// TestIndexMatchesRescanHighChurn is the incremental-maintenance property
// test: step the index and a from-scratch rescan side by side and demand
// identical adjacency every tick, the certified one being the previous
// tick's patched with Begin's flips — exactly the engine's contract — so
// any unsoundness in the pair certificates, the window shifts or the
// teleport patch shows up as a divergence here. The cases cover
// boundary-crossing churn, slow drift where windows hold for many
// ticks, teleport bursts, and the kinematic tier under EpochRWP (square,
// where border wraps are teleports) and BCV (torus).
func TestIndexMatchesRescanHighChurn(t *testing.T) {
	cases := []struct {
		name   string
		kind   geom.MetricKind
		n      int
		side   float64
		radius float64
		speed  float64
		tele   float64 // per-node teleport probability per tick
		burst  int     // every burst ticks, teleport n/8 nodes at once
		model  mobility.Predictable
		// maxScans bounds window scans per node and tick, where the
		// case is meant to keep nodes in their cells (0: unchecked).
		maxScans float64
	}{
		{name: "square", kind: geom.MetricSquare, n: 120, side: 10, radius: 1.5, speed: 0.12, tele: 0.01},
		{name: "torus", kind: geom.MetricTorus, n: 120, side: 10, radius: 1.5, speed: 0.12, tele: 0.01},
		{name: "square-fast", kind: geom.MetricSquare, n: 80, side: 8, radius: 1.0, speed: 0.35, tele: 0.01},
		{name: "torus-whole-axis", kind: geom.MetricTorus, n: 40, side: 2, radius: 1.5, speed: 0.2, tele: 0.01},
		{name: "square-whole-axis", kind: geom.MetricSquare, n: 40, side: 2, radius: 1.5, speed: 0.2, tele: 0.01},
		{name: "square-slow-drift", kind: geom.MetricSquare, n: 200, side: 10, radius: 1.5, speed: 0.004, tele: 0.002, maxScans: 0.02},
		{name: "square-teleport-burst", kind: geom.MetricSquare, n: 160, side: 10, radius: 1.5, speed: 0.02, tele: 0.005, burst: 7},
		{name: "square-epoch-rwp-kinematic", kind: geom.MetricSquare, n: 160, side: 10, radius: 1.5, speed: 0.05,
			model: mobility.EpochRWP{Speed: 1, Epoch: 1.2}},
		{name: "torus-bcv-kinematic", kind: geom.MetricTorus, n: 160, side: 10, radius: 1.5, speed: 0.05,
			model: mobility.BCV{Speed: 1}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(7))
			metric, err := geom.NewMetric(tc.kind, tc.side)
			if err != nil {
				t.Fatal(err)
			}
			var pop *mobility.Population
			var pos []geom.Vec2
			dir := make([]float64, tc.n)
			if tc.model != nil {
				if pop, err = tc.model.Init(tc.n, metric, rng); err != nil {
					t.Fatal(err)
				}
				pos = pop.Pos
			} else {
				pos = make([]geom.Vec2, tc.n)
				for i := range pos {
					pos[i] = geom.Vec2{X: rng.Float64() * tc.side, Y: rng.Float64() * tc.side}
					dir[i] = rng.Float64() * 2 * math.Pi
				}
			}
			x, err := NewIndex(metric, tc.radius, pos)
			if err != nil {
				t.Fatal(err)
			}
			if tc.model != nil {
				// speed is the per-tick step: dt = speed / model speed.
				x.UseKinematics(tc.model, pop, tc.speed)
				if x.kin == nil {
					t.Fatal("kinematic tier not engaged")
				}
			}
			rows := make(certified, tc.n)
			rows.apply(t, x.Begin(0))
			rows.matchesRescan(t, metric, pos, tc.radius, 0)
			start := x.Stats()
			bursts := 0 // ticks whose teleporters exceed N/16
			for tick := 1; tick <= 200; tick++ {
				if tc.model != nil {
					tc.model.Step(pop, metric, tc.speed, rng)
				} else {
					stepChurn(rng, metric, pos, dir, tc.speed, tc.tele)
				}
				if tc.burst > 0 && tick%tc.burst == 0 {
					for _, i := range rng.Perm(tc.n)[:tc.n/8] {
						pos[i] = geom.Vec2{X: rng.Float64() * tc.side, Y: rng.Float64() * tc.side}
					}
				}
				before := x.Stats().Teleports
				rows.apply(t, x.Begin(int64(tick)))
				if x.Stats().Teleports-before > int64(tc.n/16) {
					bursts++
				}
				rows.matchesRescan(t, metric, pos, tc.radius, tick)
			}
			st := x.Stats()
			checks := st.PairChecks - start.PairChecks
			scans := st.WindowScans - start.WindowScans
			t.Logf("%d pair checks, %d rows patched, %d window scans, %d teleports, %d burst ticks",
				checks, st.RequeriedRows-start.RequeriedRows, scans, st.Teleports, bursts)
			if tc.maxScans > 0 && float64(scans) > tc.maxScans*float64(200*tc.n) {
				t.Errorf("%d window scans in 200 ticks of %d nodes, want at most %.0f%% per node and tick; windows are not holding",
					scans, tc.n, 100*tc.maxScans)
			}
			if tc.burst > 0 && bursts < 200/tc.burst {
				t.Errorf("teleport bursts crossed N/16 on %d ticks, want at least %d", bursts, 200/tc.burst)
			}
		})
	}
}

// TestIndexCostScalesWithMobility pins the payoff: the fraction of rows
// patched per tick and the pair checks track node speed, not population
// — an order of magnitude less motion must buy roughly an order of
// magnitude less of both (the correctness of the certified rows is
// covered by the high-churn test above, which shares the same code
// path).
func TestIndexCostScalesWithMobility(t *testing.T) {
	cost := func(step float64) (rowFrac, checksPerRow float64) {
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
		x.Begin(0)
		start := x.Stats()
		for tick := 1; tick <= ticks; tick++ {
			for i := range pos {
				p := pos[i].Add(geom.Heading(dir[i]).Scale(step))
				pos[i], _ = metric.Wrap(p)
			}
			x.Begin(int64(tick))
		}
		st := x.Stats()
		return float64(st.RequeriedRows-start.RequeriedRows) / float64(ticks*n),
			float64(st.PairChecks-start.PairChecks) / float64(ticks*n)
	}
	// 0.0025 is the step benchmark's per-tick displacement (v=0.05,
	// dt=0.05); a full rescan patches 100% of rows by definition.
	base, baseChecks := cost(0.0025)
	slow, slowChecks := cost(0.00025)
	if base > 0.7 {
		t.Errorf("bench-mobility patched-row fraction %.0f%%; incremental path not engaging", 100*base)
	}
	if slow > base/3 {
		t.Errorf("10× slower mobility only cut the patched-row fraction from %.1f%% to %.1f%%; cost is not mobility-bound",
			100*base, 100*slow)
	}
	if slowChecks > baseChecks/3 {
		t.Errorf("10× slower mobility only cut pair checks per row and tick from %.2f to %.2f; cost is not mobility-bound",
			baseChecks, slowChecks)
	}
	t.Logf("rows patched: %.1f%% at bench speed, %.1f%% at 1/10 speed; pair checks per row and tick %.2f and %.2f",
		100*base, 100*slow, baseChecks, slowChecks)
}

// TestIndexStationaryZeroRequeries is the fast-path regression test: when
// nothing moves, Begin must report no flips, patch no row and check no
// pair — per-tick topology cost drops to the O(N) step pass.
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
	x.Begin(0) // initial build
	base := x.Stats()
	if base.RequeriedRows != n {
		t.Fatalf("initial build counted %d rows, want %d", base.RequeriedRows, n)
	}
	for tick := 1; tick <= 100; tick++ {
		if flips := x.Begin(int64(tick)); len(flips) != 0 {
			t.Fatalf("tick %d: stationary network flipped %d pairs", tick, len(flips))
		}
	}
	if got := x.Stats(); got.RequeriedRows != base.RequeriedRows || got.PairChecks != base.PairChecks {
		t.Errorf("stationary run accumulated work: rows %d → %d, pair checks %d → %d",
			base.RequeriedRows, got.RequeriedRows, base.PairChecks, got.PairChecks)
	}
}

// TestIndexTeleportPatch pins three pieces of the window invariant that
// a random walk exercises only by chance, each on a hand-built layout
// (square 10×10, radius 1.5):
//
//   - teleport-in: a node jumps next to a stationary node whose window
//     does not hold it; the pair is only found if the teleporter's
//     window is rebuilt at its new position;
//   - teleport-out: a node jumps away from a stationary neighbor whose
//     pair certificate is long; the link only breaks if the teleporter's
//     pairs are re-checked;
//   - margin-cap: two nodes close the last cell of margin between their
//     windows on the same tick; the pair is only tracked in time if
//     cell changes are applied one node at a time.
func TestIndexTeleportPatch(t *testing.T) {
	metric, err := geom.NewMetric(geom.MetricSquare, 10)
	if err != nil {
		t.Fatal(err)
	}
	const radius = 1.5
	// layout appends stationary filler along the top edge, far from the
	// action.
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
	cs := probe.cellSize
	run := func(t *testing.T, pos []geom.Vec2, ticks int, move func(tick int)) *Index {
		x, err := NewIndex(metric, radius, pos)
		if err != nil {
			t.Fatal(err)
		}
		rows := make(certified, len(pos))
		rows.apply(t, x.Begin(0))
		for tick := 1; tick <= ticks; tick++ {
			move(tick)
			rows.apply(t, x.Begin(int64(tick)))
			rows.matchesRescan(t, metric, pos, radius, tick)
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
		// Node 0 sits 0.5 from node 1 (a certificate far longer than the
		// run), then jumps far.
		pos := layout(geom.Vec2{X: 3.5, Y: 3}, geom.Vec2{X: 3, Y: 3}, geom.Vec2{X: 7, Y: 7}, geom.Vec2{X: 7.5, Y: 7})
		run(t, pos, 3, func(tick int) {
			if tick == 2 {
				pos[0] = geom.Vec2{X: 8.5, Y: 2}
			}
		})
	})
	t.Run("margin-cap", func(t *testing.T) {
		// Nodes 0 and 2 sit just inside cells 1 and D+2 of one cell row,
		// D+1 cells apart, where D = span is the farthest near cell
		// distance, and on tick 1 both step one cell toward each other.
		// Judged against node 2's new cell, node 0 gains nothing in cell
		// D+1, and node 2 gains nothing in node 0's new cell — both cells
		// already sat in the other's old window — so a simultaneous
		// update never tracks the pair, which then links within D·cs−r
		// of closing, before either node changes cell again.
		d := uint32(probe.span)
		if !probe.near(1<<16, (1+d)<<16) || probe.near(1<<16, (2+d)<<16) || float64(d+3)*cs > 10 {
			t.Fatalf("layout assumes near cells reach exactly span = %d cells", d)
		}
		pos := layout(geom.Vec2{X: 2*cs - 0.01, Y: 5}, geom.Vec2{X: 1, Y: 1}, geom.Vec2{X: float64(2+d)*cs + 0.01, Y: 5})
		run(t, pos, 20, func(int) {
			pos[0].X += 0.02
			pos[2].X -= 0.02
		})
	})
}

// TestIndexZeroSteadyStateAllocs pins the index's share of the
// allocation-free tick loop: once buckets, pair lists and the pair pool
// have grown to working size, Begin allocates nothing — including ticks
// whose teleporters are patched in and ticks that rebuild skins.
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
	tick := int64(0)
	step := func() {
		stepChurn(rng, metric, pos, dir, 0.01, 0.005)
		tick++
		x.Begin(tick)
	}
	x.Begin(0)
	for k := 0; k < 300; k++ {
		step()
	}
	before := x.Stats()
	if allocs := testing.AllocsPerRun(200, step); allocs != 0 {
		t.Errorf("Begin allocates %v times per tick in steady state, want 0", allocs)
	}
	if st := x.Stats(); st.Teleports == before.Teleports || st.WindowScans == before.WindowScans {
		t.Errorf("measured ticks patched %d teleports and made %d window scans; want both > 0",
			st.Teleports-before.Teleports, st.WindowScans-before.WindowScans)
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
