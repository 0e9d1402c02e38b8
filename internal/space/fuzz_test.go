package space

import (
	"math/rand"
	"testing"

	"repro/internal/geom"
	"repro/internal/mobility"
)

// FuzzIndexMatchesRescan drives the index with fuzzed populations and
// motion — random walks with teleports (drift tier) or EpochRWP/BCV
// (kinematic tier) — and fuzzed multi-tick gaps between Begin calls,
// and demands that the adjacency patched with Begin's flips equal a
// brute-force rescan at every Begin.
func FuzzIndexMatchesRescan(f *testing.F) {
	f.Add(int64(1), uint8(60), uint8(3), uint8(20), uint8(4), uint8(0), false)
	f.Add(int64(2), uint8(90), uint8(5), uint8(40), uint8(0), uint8(1), false)
	f.Add(int64(3), uint8(40), uint8(9), uint8(80), uint8(30), uint8(2), true)
	f.Add(int64(4), uint8(120), uint8(1), uint8(5), uint8(2), uint8(1), true)
	f.Fuzz(func(t *testing.T, seed int64, n, radius, speed, tele, mode uint8, torus bool) {
		rng := rand.New(rand.NewSource(seed))
		nodes := 1 + int(n)%150
		const side = 10.0
		r := 0.3 + float64(radius%16)*0.3
		step := float64(speed%100) / 200 // per-tick step, up to ~r
		kind := geom.MetricSquare
		if torus {
			kind = geom.MetricTorus
		}
		metric, err := geom.NewMetric(kind, side)
		if err != nil {
			t.Fatal(err)
		}
		var model mobility.Predictable
		switch mode % 3 {
		case 1:
			model = mobility.EpochRWP{Speed: 1, Epoch: 0.5 + float64(seed&7)}
		case 2:
			model = mobility.BCV{Speed: 1}
		}
		var pop *mobility.Population
		if model != nil {
			if pop, err = model.Init(nodes, metric, rng); err != nil {
				t.Fatal(err)
			}
		} else {
			pop = mobility.NewPopulation(nodes)
			for i := range pop.Pos {
				pop.Pos[i] = geom.Vec2{X: rng.Float64() * side, Y: rng.Float64() * side}
				pop.Dir[i] = rng.Float64() * 7
			}
		}
		pos := pop.Pos
		x, err := NewIndex(metric, r, pos)
		if err != nil {
			t.Fatal(err)
		}
		if model != nil && step > 0 {
			x.UseKinematics(model, pop, step)
		}
		rows := make(certified, nodes)
		rows.apply(t, x.Begin(0))
		for tick := 1; tick <= 60; tick++ {
			if model != nil {
				if step > 0 {
					model.Step(pop, metric, step, rng)
				}
			} else {
				stepChurn(rng, metric, pos, pop.Dir, step*rng.Float64()*2, float64(tele%64)/256)
			}
			if rng.Intn(3) == 0 {
				continue // a gap: no Begin this tick
			}
			rows.apply(t, x.Begin(int64(tick)))
			rows.matchesRescan(t, metric, pos, r, tick)
		}
	})
}
