package netsim

import (
	"fmt"
	"testing"

	"repro/internal/geom"
	"repro/internal/mobility"
	"repro/internal/simrand"
)

// tileMedium is a deterministic in-package fault medium (the real fault
// package imports netsim, so it cannot be used here): nodes cycle their
// radios on a per-node phase, one pair parity class is partitioned on a
// duty cycle, and every 7th delivery attempt is dropped.
type tileMedium struct {
	n    int
	tick int64
}

func (m *tileMedium) Reset(n int, _ simrand.Source) { m.n = n }
func (m *tileMedium) Advance(tick int64)            { m.tick = tick }
func (m *tileMedium) Alive(id NodeID) bool {
	return (m.tick+int64(id))%37 >= 3 // each node down 3 of every 37 ticks
}
func (m *tileMedium) Cut(a, b NodeID) bool {
	return m.tick%20 < 5 && (a+b)%2 == 1
}
func (m *tileMedium) Deliver(seq int64, from, to NodeID) Fate {
	if seq%7 == 0 {
		return Fate{Drop: true}
	}
	return Fate{}
}

// tileTrace runs a mobile, faulted scenario at the given tile count and
// records everything observable per tick: link events, tallies, and the
// full flattened adjacency.
type tileTrace struct {
	events  []LinkEvent
	tallies []Tallies
	adj     [][]NodeID
}

func runTileTrace(t *testing.T, tiles int, ticks int, withFaults bool) tileTrace {
	t.Helper()
	cfg := Config{
		N: 60, Side: 8, Range: 1.5, Dt: 0.1, Seed: 99,
		Metric: geom.MetricTorus,
		Model:  mobility.EpochRWP{Speed: 0.4, Epoch: 2},
		Tiles:  tiles,
	}
	if withFaults {
		cfg.Medium = &tileMedium{}
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	p := &probe{name: "trace"}
	if err := s.Register(p); err != nil {
		t.Fatal(err)
	}
	var tr tileTrace
	for i := 0; i < ticks; i++ {
		if err := s.Step(); err != nil {
			t.Fatal(err)
		}
		tr.tallies = append(tr.tallies, s.Tallies())
		var flat []NodeID
		for id := NodeID(0); int(id) < cfg.N; id++ {
			flat = append(flat, NodeID(-1))
			flat = append(flat, s.Neighbors(id)...)
		}
		tr.adj = append(tr.adj, flat)
	}
	tr.events = p.events
	return tr
}

// TestTilesByteIdentical pins the tile-handoff determinism claim: the
// engine's complete observable behavior — every link event in order,
// every tally snapshot, every neighbor row every tick — is identical
// for any tile count, including oversubscribed splits (more tiles than
// cores) and tiles > N (clamped). Run with -race this also proves the
// phases are data-race-free.
func TestTilesByteIdentical(t *testing.T) {
	for _, withFaults := range []bool{false, true} {
		name := "ideal"
		if withFaults {
			name = "faulted"
		}
		t.Run(name, func(t *testing.T) {
			const ticks = 80
			want := runTileTrace(t, 1, ticks, withFaults)
			for _, tiles := range []int{0, 2, 3, 8, 64} {
				got := runTileTrace(t, tiles, ticks, withFaults)
				if len(got.events) != len(want.events) {
					t.Fatalf("tiles=%d: %d events, serial %d", tiles, len(got.events), len(want.events))
				}
				for k := range want.events {
					if got.events[k] != want.events[k] {
						t.Fatalf("tiles=%d: event %d = %+v, serial %+v", tiles, k, got.events[k], want.events[k])
					}
				}
				for tick := 0; tick < ticks; tick++ {
					if got.tallies[tick] != want.tallies[tick] {
						t.Fatalf("tiles=%d: tallies diverge at tick %d", tiles, tick+1)
					}
					if fmt.Sprint(got.adj[tick]) != fmt.Sprint(want.adj[tick]) {
						t.Fatalf("tiles=%d: adjacency diverges at tick %d", tiles, tick+1)
					}
				}
			}
		})
	}
}

// TestStationaryFastPathSkipsRebuild is the engine-level regression for
// the zero-motion fast path: on a static model the index must report
// no flips after the initial build, so the per-tick topology work drops
// to the O(N) step pass — no row changes and no pair checks at all.
func TestStationaryFastPathSkipsRebuild(t *testing.T) {
	s, err := New(Config{N: 80, Side: 10, Range: 2, Dt: 0.1, Seed: 7, Tiles: 4})
	if err != nil {
		t.Fatal(err)
	}
	base, checks := s.IndexStats().RequeriedRows, s.IndexStats().PairChecks
	if base != 80 {
		t.Fatalf("initial build requeried %d rows, want 80", base)
	}
	for i := 0; i < 50; i++ {
		if err := s.Step(); err != nil {
			t.Fatal(err)
		}
	}
	if got := s.IndexStats().RequeriedRows; got != base {
		t.Errorf("static run requeried %d additional rows, want 0", got-base)
	}
	if got := s.IndexStats().PairChecks; got != checks {
		t.Errorf("static run checked %d additional pairs, want 0", got-checks)
	}
	if ta := s.Tallies(); ta.LinkGen != 0 || ta.LinkBrk != 0 {
		t.Errorf("static run produced link events: %+v", ta)
	}
}
