package netsim_test

import (
	"testing"

	"repro/internal/mobility"
	"repro/internal/netsim"
	"repro/internal/routing"
)

// TestStepZeroSteadyStateAllocsHello is TestStepZeroSteadyStateAllocs
// with the real HELLO protocol, in both beacon modes: its sender-major
// tables, sequence filter and neighbor guard sit on the delivery path
// and must not allocate once the tables have grown to working size.
func TestStepZeroSteadyStateAllocsHello(t *testing.T) {
	for _, tc := range []struct {
		name  string
		hello func() (*routing.Hello, error)
	}{
		{"on-link-gen", func() (*routing.Hello, error) { return routing.NewHello(64) }},
		{"periodic", func() (*routing.Hello, error) { return routing.NewPeriodicHello(64, 0.5) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, err := netsim.New(netsim.Config{N: 200, Side: 10, Range: 1.5, Dt: 0.05, Seed: 7,
				Model: mobility.EpochRWP{Speed: 0.4, Epoch: 2}})
			if err != nil {
				t.Fatal(err)
			}
			h, err := tc.hello()
			if err != nil {
				t.Fatal(err)
			}
			if err := s.Register(h); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 200; i++ { // grow tables to working size
				if err := s.Step(); err != nil {
					t.Fatal(err)
				}
			}
			allocs := testing.AllocsPerRun(100, func() {
				if err := s.Step(); err != nil {
					t.Fatal(err)
				}
			})
			if allocs != 0 {
				t.Errorf("Step with HELLO allocates %v times per tick in steady state, want 0", allocs)
			}
		})
	}
}

// TestStepZeroSteadyStateAllocsStack runs the full stack MeasureRates
// registers — HELLO, LID cluster maintenance, hybrid routing — over the
// mobile network of BenchmarkStep/n400/stack: link events drive cluster
// re-affiliation and hybrid table rounds every tick, and none of it may
// allocate once tables and scratch have grown to working size.
func TestStepZeroSteadyStateAllocsStack(t *testing.T) {
	s, err := netsim.New(netsim.Config{N: 400, Side: 10, Range: 1.5, Dt: 0.05, Seed: 1,
		Model: mobility.EpochRWP{Speed: 0.05, Epoch: 10}})
	if err != nil {
		t.Fatal(err)
	}
	registerStack(t, s)
	for i := 0; i < 300; i++ {
		if err := s.Step(); err != nil {
			t.Fatal(err)
		}
	}
	before := s.Tallies()
	allocs := testing.AllocsPerRun(200, func() {
		if err := s.Step(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("Step with HELLO+LID+Hybrid allocates %v times per tick in steady state, want 0", allocs)
	}
	if w := s.Tallies().Sub(before); w.LinkBrk == 0 || w.Of(netsim.MsgRoute).Msgs == 0 || w.Of(netsim.MsgCluster).Msgs == 0 {
		t.Errorf("measured ticks broke %v links and sent %v ROUTE and %v CLUSTER messages; want all > 0",
			w.LinkBrk, w.Of(netsim.MsgRoute).Msgs, w.Of(netsim.MsgCluster).Msgs)
	}
}
