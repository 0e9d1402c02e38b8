package netsim_test

import (
	"math/rand"
	"testing"

	"repro/internal/geom"
	"repro/internal/mobility"
	"repro/internal/netsim"
	"repro/internal/routing"
	"repro/internal/simrand"
)

// placed is a mobility model that puts node i at placed[i] and never
// moves it; tests move nodes by writing Population().Pos between steps.
type placed []geom.Vec2

func (placed) Name() string { return "placed" }
func (p placed) Init(n int, _ geom.Metric, _ *rand.Rand) (*mobility.Population, error) {
	pop := mobility.NewPopulation(n)
	copy(pop.Pos, p)
	return pop, nil
}
func (placed) Step(*mobility.Population, geom.Metric, float64, *rand.Rand) {}

// delayAll is an ideal medium except that every delivery is parked for
// a fixed number of ticks.
type delayAll struct{ ticks int32 }

func (delayAll) Reset(int, simrand.Source)   {}
func (delayAll) Advance(int64)               {}
func (delayAll) Alive(netsim.NodeID) bool    { return true }
func (delayAll) Cut(a, b netsim.NodeID) bool { return false }
func (m delayAll) Deliver(int64, netsim.NodeID, netsim.NodeID) netsim.Fate {
	return netsim.Fate{Delay: m.ticks}
}

// pairConfig is two nodes 1 apart, in range of each other.
func pairConfig(medium netsim.Medium) netsim.Config {
	return netsim.Config{N: 2, Side: 10, Range: 2, Dt: 0.1, Seed: 1,
		Model: placed{{X: 5, Y: 5}, {X: 6, Y: 5}}, Medium: medium}
}

// TestDelayedHelloRejectedAfterLinkBreak checks that the in-flight
// IsNeighbor shortcut covers only same-tick deliveries from the sender's
// row: the two start-up beacons are parked for two ticks, the link
// breaks while they are in flight, and on release HELLO's neighbor guard
// must search the current adjacency and reject both. The control run,
// where the link survives, shows the released beacons would otherwise
// fill the tables.
func TestDelayedHelloRejectedAfterLinkBreak(t *testing.T) {
	for _, tc := range []struct {
		name string
		cut  bool
		want int
	}{{"link-breaks", true, 0}, {"control", false, 1}} {
		t.Run(tc.name, func(t *testing.T) {
			s, err := netsim.New(pairConfig(delayAll{ticks: 2}))
			if err != nil {
				t.Fatal(err)
			}
			h, err := routing.NewHello(64)
			if err != nil {
				t.Fatal(err)
			}
			if err := s.Register(h); err != nil {
				t.Fatal(err)
			}
			if err := s.Start(); err != nil {
				t.Fatal(err)
			}
			if tc.cut {
				s.Population().Pos[1] = geom.Vec2{X: 9, Y: 9}
			}
			for tick := 0; tick < 2; tick++ {
				if err := s.Step(); err != nil {
					t.Fatal(err)
				}
			}
			if got := s.Delivered(); got != 2 {
				t.Fatalf("released %d beacons, want 2", got)
			}
			if s.IsNeighbor(0, 1) != !tc.cut {
				t.Fatalf("IsNeighbor(0, 1) = %v after break=%v", s.IsNeighbor(0, 1), tc.cut)
			}
			for a := netsim.NodeID(0); a < 2; a++ {
				if got := h.TableSize(a); got != tc.want {
					t.Errorf("node %d table holds %d entries, want %d", a, got, tc.want)
				}
			}
		})
	}
}

// TestInFlightPairClearedAfterDrain checks that the pair recorded for
// the last same-tick delivery stops answering once the drain is over:
// the start-up drain ends on the delivery 1→0, the link then breaks, and
// both directions must read as broken. A fresh Sim records no pair, so
// a node is never its own neighbor.
func TestInFlightPairClearedAfterDrain(t *testing.T) {
	s, err := netsim.New(pairConfig(nil))
	if err != nil {
		t.Fatal(err)
	}
	if s.IsNeighbor(0, 0) {
		t.Fatal("IsNeighbor(0, 0) = true before any delivery")
	}
	h, err := routing.NewHello(64)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Register(h); err != nil {
		t.Fatal(err)
	}
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	if got := s.Delivered(); got != 2 {
		t.Fatalf("start-up drain delivered %d beacons, want 2", got)
	}
	s.Population().Pos[1] = geom.Vec2{X: 9, Y: 9}
	if err := s.Step(); err != nil {
		t.Fatal(err)
	}
	if len(s.Neighbors(0)) != 0 || len(s.Neighbors(1)) != 0 {
		t.Fatalf("link did not break: rows %v %v", s.Neighbors(0), s.Neighbors(1))
	}
	if s.IsNeighbor(1, 0) || s.IsNeighbor(0, 1) {
		t.Errorf("IsNeighbor(1, 0) = %v, IsNeighbor(0, 1) = %v after the link broke, want false",
			s.IsNeighbor(1, 0), s.IsNeighbor(0, 1))
	}
}
