package geom

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func mustMetric(t *testing.T, kind MetricKind, side float64) Metric {
	t.Helper()
	m, err := NewMetric(kind, side)
	if err != nil {
		t.Fatalf("NewMetric(%v, %v): %v", kind, side, err)
	}
	return m
}

func TestNewMetricValidation(t *testing.T) {
	tests := []struct {
		name    string
		kind    MetricKind
		side    float64
		wantErr bool
	}{
		{"square ok", MetricSquare, 10, false},
		{"torus ok", MetricTorus, 1, false},
		{"zero side", MetricSquare, 0, true},
		{"negative side", MetricTorus, -3, true},
		{"bad kind", MetricKind(99), 10, true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			_, err := NewMetric(tt.kind, tt.side)
			if gotErr := err != nil; gotErr != tt.wantErr {
				t.Errorf("err = %v, wantErr = %v", err, tt.wantErr)
			}
		})
	}
}

func TestMetricKindString(t *testing.T) {
	if MetricSquare.String() != "square" || MetricTorus.String() != "torus" {
		t.Errorf("unexpected names: %v %v", MetricSquare, MetricTorus)
	}
	if got := MetricKind(7).String(); got != "MetricKind(7)" {
		t.Errorf("unknown kind String = %q", got)
	}
}

func TestSquareMetricIsEuclidean(t *testing.T) {
	m := mustMetric(t, MetricSquare, 10)
	p := Vec2{1, 1}
	q := Vec2{9, 9}
	want := p.Dist(q)
	if got := m.Dist(p, q); !almostEq(got, want, 1e-12) {
		t.Errorf("Dist = %v, want %v", got, want)
	}
}

func TestTorusMetricWrapsShortWay(t *testing.T) {
	m := mustMetric(t, MetricTorus, 10)
	p := Vec2{0.5, 5}
	q := Vec2{9.5, 5}
	if got := m.Dist(p, q); !almostEq(got, 1, 1e-12) {
		t.Errorf("torus Dist = %v, want 1", got)
	}
	// Diagonal wrap.
	p = Vec2{0.5, 0.5}
	q = Vec2{9.5, 9.5}
	if got := m.Dist(p, q); !almostEq(got, math.Sqrt2, 1e-12) {
		t.Errorf("torus diagonal Dist = %v, want √2", got)
	}
}

func TestTorusNeverExceedsSquare(t *testing.T) {
	sq := mustMetric(t, MetricSquare, 7)
	to := mustMetric(t, MetricTorus, 7)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 1000; i++ {
		p := Vec2{rng.Float64() * 7, rng.Float64() * 7}
		q := Vec2{rng.Float64() * 7, rng.Float64() * 7}
		if to.Dist2(p, q) > sq.Dist2(p, q)+1e-9 {
			t.Fatalf("torus dist %v exceeds square dist %v for %v %v",
				to.Dist(p, q), sq.Dist(p, q), p, q)
		}
	}
}

func TestWrapInRegion(t *testing.T) {
	m := mustMetric(t, MetricTorus, 10)
	tests := []struct {
		in      Vec2
		want    Vec2
		wrapped bool
	}{
		{Vec2{5, 5}, Vec2{5, 5}, false},
		{Vec2{0, 0}, Vec2{0, 0}, false},
		{Vec2{10, 5}, Vec2{0, 5}, true},
		{Vec2{-1, 5}, Vec2{9, 5}, true},
		{Vec2{12.5, -0.5}, Vec2{2.5, 9.5}, true},
		{Vec2{25, 5}, Vec2{5, 5}, true},
	}
	for _, tt := range tests {
		got, wrapped := m.Wrap(tt.in)
		if !almostEq(got.X, tt.want.X, 1e-9) || !almostEq(got.Y, tt.want.Y, 1e-9) || wrapped != tt.wrapped {
			t.Errorf("Wrap(%v) = %v,%v want %v,%v", tt.in, got, wrapped, tt.want, tt.wrapped)
		}
		if !m.Contains(got) {
			t.Errorf("Wrap(%v) = %v not contained in region", tt.in, got)
		}
	}
}

func TestMetricAccessors(t *testing.T) {
	m := mustMetric(t, MetricTorus, 42)
	if m.Kind() != MetricTorus || m.Side() != 42 {
		t.Errorf("accessors: kind=%v side=%v", m.Kind(), m.Side())
	}
}

func TestPropertyTorusMetricAxioms(t *testing.T) {
	m := mustMetric(t, MetricTorus, 100)
	gen := func(x float64) float64 {
		v := math.Mod(math.Abs(clampFinite(x)), 100)
		return v
	}
	symmetry := func(ax, ay, bx, by float64) bool {
		p := Vec2{gen(ax), gen(ay)}
		q := Vec2{gen(bx), gen(by)}
		return almostEq(m.Dist(p, q), m.Dist(q, p), 1e-9)
	}
	if err := quick.Check(symmetry, nil); err != nil {
		t.Errorf("symmetry: %v", err)
	}
	triangle := func(ax, ay, bx, by, cx, cy float64) bool {
		p := Vec2{gen(ax), gen(ay)}
		q := Vec2{gen(bx), gen(by)}
		s := Vec2{gen(cx), gen(cy)}
		return m.Dist(p, q) <= m.Dist(p, s)+m.Dist(s, q)+1e-9
	}
	if err := quick.Check(triangle, nil); err != nil {
		t.Errorf("triangle inequality: %v", err)
	}
	identity := func(ax, ay float64) bool {
		p := Vec2{gen(ax), gen(ay)}
		return m.Dist(p, p) == 0
	}
	if err := quick.Check(identity, nil); err != nil {
		t.Errorf("identity: %v", err)
	}
	bounded := func(ax, ay, bx, by float64) bool {
		p := Vec2{gen(ax), gen(ay)}
		q := Vec2{gen(bx), gen(by)}
		// Max torus distance is side·√2/2.
		return m.Dist(p, q) <= 100*math.Sqrt2/2+1e-9
	}
	if err := quick.Check(bounded, nil); err != nil {
		t.Errorf("boundedness: %v", err)
	}
}

func TestPropertyWrapIdempotent(t *testing.T) {
	m := mustMetric(t, MetricSquare, 9)
	f := func(x, y float64) bool {
		p := Vec2{clampFinite(x), clampFinite(y)}
		w1, _ := m.Wrap(p)
		w2, wrapped2 := m.Wrap(w1)
		return !wrapped2 && w1 == w2 && m.Contains(w1)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestWrapDeltaMatchesMod pins wrapDelta's shortcut: skipping math.Mod
// for differences below side in magnitude must give bit-identical
// results to always calling it, across random in-range and out-of-range
// differences, the ±side/2 and ±side boundaries, and non-finite inputs.
func TestWrapDeltaMatchesMod(t *testing.T) {
	ref := func(d, side float64) float64 {
		d = math.Mod(d, side)
		switch {
		case d > side/2:
			d -= side
		case d < -side/2:
			d += side
		}
		return d
	}
	same := func(a, b float64) bool {
		return math.Float64bits(a) == math.Float64bits(b) || (math.IsNaN(a) && math.IsNaN(b))
	}
	rng := rand.New(rand.NewSource(17))
	for _, side := range []float64{1, 7.3, 10, 1e-3} {
		cases := []float64{0, side / 2, -side / 2, side, -side,
			math.Nextafter(side, 0), -math.Nextafter(side, 0), math.Nextafter(side, 2*side),
			math.Inf(1), math.Inf(-1), math.NaN()}
		for k := 0; k < 2000; k++ {
			p, q := rng.Float64()*side, rng.Float64()*side
			cases = append(cases, p-q, (rng.Float64()-0.5)*6*side)
		}
		for _, d := range cases {
			if got, want := wrapDelta(d, side), ref(d, side); !same(got, want) {
				t.Fatalf("side %g: wrapDelta(%g) = %g, math.Mod form gives %g", side, d, got, want)
			}
		}
	}
}
