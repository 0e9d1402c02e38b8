package netsim_test

import (
	"math"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/mobility"
	"repro/internal/netsim"
	"repro/internal/routing"
)

// BenchmarkStep times the steady-state tick loop at constant density
// (side grows as √N) for the canonical bench mobility and a low-mobility
// variant (1/10 speed). The spread between the two shows the pair
// certificates at work: per-tick cost follows link flips and cell
// changes, which scale with speed, not with N itself. The stack row runs
// the canonical N=400 network with the protocols MeasureRates registers,
// so it times the broadcast delivery path the other rows never reach.
func BenchmarkStep(b *testing.B) {
	for _, bc := range []struct {
		n     int
		speed float64
		name  string
		stack bool
	}{
		{400, 0.05, "n400/canonical", false},
		{400, 0.005, "n400/low", false},
		{400, 0.05, "n400/stack", true},
		{10000, 0.05, "n10k/canonical", false},
		{10000, 0.005, "n10k/low", false},
	} {
		b.Run(bc.name, func(b *testing.B) {
			s, err := netsim.New(netsim.Config{
				N: bc.n, Side: 10 * math.Sqrt(float64(bc.n)/400), Range: 1.5, Dt: 0.05, Seed: 1,
				Metric: geom.MetricSquare,
				Model:  mobility.EpochRWP{Speed: bc.speed, Epoch: 10},
			})
			if err != nil {
				b.Fatal(err)
			}
			if bc.stack {
				registerStack(b, s)
			}
			for i := 0; i < 100; i++ {
				if err := s.Step(); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := s.Step(); err != nil {
					b.Fatal(err)
				}
			}
			st := s.IndexStats()
			b.ReportMetric(float64(st.RequeriedRows)/float64(st.Ticks)/float64(bc.n), "changed/row/tick")
			b.ReportMetric(float64(st.PairChecks)/float64(st.Ticks)/float64(bc.n), "checks/row/tick")
		})
	}
}

// registerStack registers the protocol stack MeasureRates runs, in its
// order: HELLO, cluster maintenance (LID), hybrid routing.
func registerStack(tb testing.TB, s *netsim.Sim) {
	tb.Helper()
	hello, err := routing.NewHello(core.DefaultMessageSizes.Hello)
	if err != nil {
		tb.Fatal(err)
	}
	maint, err := cluster.NewMaintainer(cluster.LID{}, core.DefaultMessageSizes.Cluster)
	if err != nil {
		tb.Fatal(err)
	}
	hybrid, err := routing.NewHybrid(maint, routing.Sizes{
		Entry:     core.DefaultMessageSizes.RouteEntry,
		Discovery: routing.DefaultSizes.Discovery,
		Data:      routing.DefaultSizes.Data,
	})
	if err != nil {
		tb.Fatal(err)
	}
	if err := s.Register(hello, maint, hybrid); err != nil {
		tb.Fatal(err)
	}
}
