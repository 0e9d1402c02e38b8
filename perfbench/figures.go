package main

import (
	"bytes"
	"encoding/csv"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime/debug"
	"strconv"
	"time"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/netsim"
)

// figures: Figures 1–3 at the paper's settings, serially on the tick core.
// scale: one N=10 000 sparse measurement on the event core.

var figureIDs = []int{1, 2, 3}

// figureNet rebuilds the scenario of one figure point, as the figure
// drivers do; the traced run checks the rebuilt points against the CSVs.
func figureNet(fig int, x float64) core.Network {
	switch fig {
	case 1:
		net := core.Network{N: 400, Density: 4}
		a := net.Side()
		net.R, net.V = x*a, 0.005*a
		return net
	case 2:
		net := core.Network{N: 400, Density: 4}
		a := net.Side()
		net.R, net.V = 0.075*a, x*a
		return net
	default:
		return core.Network{N: 400, Density: x, R: 3, V: 0.1}
	}
}

func figureXs(fig int) []float64 {
	return map[int][]float64{1: experiments.Figure1Xs, 2: experiments.Figure2Xs, 3: experiments.Figure3Xs}[fig]
}

func figureOptions(seed uint64, events float64) experiments.Options {
	opts := experiments.DefaultOptions()
	opts.Seed = seed
	opts.TargetEvents = events
	opts.Workers = 1
	return opts
}

func scaleNet(n int) core.Network { return core.Network{N: n, Density: 1, R: 1.5, V: 0.05} }

func scaleOptions(seed uint64, events float64) experiments.Options {
	opts := figureOptions(seed, events)
	opts.Core = netsim.CoreEvent
	return opts
}

// goldenSeed is the seed results/fig{1,2,3}.csv were rendered with.
const goldenSeed = 42

func loadGolden(root string) (map[int][]byte, error) {
	g := map[int][]byte{}
	for _, fig := range figureIDs {
		data, err := os.ReadFile(filepath.Join(root, "results", fmt.Sprintf("fig%d.csv", fig)))
		if err != nil {
			return nil, err
		}
		g[fig] = data
	}
	return g, nil
}

// checkFigure checks one figure CSV: byte for byte against the published
// figure when the inputs are the published ones, otherwise the shape and
// the agreement bands of the statistical conformance gate
// (internal/difftest): over the figure's points, simulated HELLO and
// CLUSTER rates within [0.80, 1.20]× the analysis, ROUTE at or above its
// lower bound.
func checkFigure(fig int, data, golden []byte, exact bool) error {
	if exact {
		if !bytes.Equal(data, golden) {
			return fmt.Errorf("figure %d differs from results/fig%d.csv", fig, fig)
		}
		return nil
	}
	rows, err := csv.NewReader(bytes.NewReader(data)).ReadAll()
	if err != nil {
		return fmt.Errorf("figure %d: %v", fig, err)
	}
	if want := len(figureXs(fig)) + 1; len(rows) != want || len(rows[0]) != 7 {
		return fmt.Errorf("figure %d: %d rows, want %d rows of 7 columns", fig, len(rows), want)
	}
	var sums [6]float64
	for _, row := range rows[1:] {
		if len(row) != 7 {
			return fmt.Errorf("figure %d: row %q has %d columns", fig, row, len(row))
		}
		for i, cell := range row[1:] {
			v, err := strconv.ParseFloat(cell, 64)
			if err != nil || math.IsNaN(v) || math.IsInf(v, 0) || v <= 0 {
				return fmt.Errorf("figure %d: bad value %q", fig, cell)
			}
			sums[i] += v
		}
	}
	// Columns: hello analysis, simulation; cluster ...; route ...
	for k, name := range []string{"hello", "cluster"} {
		if r := sums[2*k+1] / sums[2*k]; r < 0.80 || r > 1.20 {
			return fmt.Errorf("figure %d: %s simulation/analysis = %.3f, outside [0.80, 1.20]", fig, name, r)
		}
	}
	if sums[5] < sums[4] {
		return fmt.Errorf("figure %d: route simulation %.4g below the analysis lower bound %.4g", fig, sums[5], sums[4])
	}
	return nil
}

// checkScale checks the scale measurement's one-row CSV against the
// analysis: mean degree within 12% of ρπr² less border loss, and the
// maintained head ratio positive and at most Eqn 17's formation ratio
// 1/√(d+1) plus the same 12%.
func checkScale(data []byte) error {
	rows, err := csv.NewReader(bytes.NewReader(data)).ReadAll()
	if err != nil {
		return fmt.Errorf("scale: %v", err)
	}
	if len(rows) != 2 || len(rows[0]) != 12 || len(rows[1]) != 12 {
		return fmt.Errorf("scale: want a header and one row of 12 columns")
	}
	col := map[string]float64{}
	for i, name := range rows[0] {
		v, err := strconv.ParseFloat(rows[1][i], 64)
		if err != nil || math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("scale: bad %s %q", name, rows[1][i])
		}
		col[name] = v
	}
	d, dA := col["mean_degree"], col["mean_degree_analysis"]
	if math.Abs(d/dA-1) > 0.12 {
		return fmt.Errorf("scale: mean degree %.4g is not within 12%% of the analysis %.4g", d, dA)
	}
	p, eqn17 := col["head_ratio"], 1/math.Sqrt(d+1)
	if p <= 0 || p > 1.12*eqn17 {
		return fmt.Errorf("scale: head ratio %.4g is outside (0, 1.12 × 1/√(d+1) = %.4g]", p, 1.12*eqn17)
	}
	return nil
}

// repeat runs pass until the measuring time is spent, at least once, and
// returns each pass's duration in seconds. Before each pass it returns
// the previous pass's memory to the OS, so every pass starts as a fresh
// process does: a researcher renders the figures once per process.
func repeat(seconds time.Duration, pass func()) []float64 {
	var times []float64
	deadline := time.Now().Add(seconds)
	for len(times) == 0 || time.Now().Before(deadline) {
		debug.FreeOSMemory()
		start := time.Now()
		pass()
		times = append(times, time.Since(start).Seconds())
	}
	return times
}

// keep counts one call of a simulation entry point and keeps its output
// in out[key]; a repeated call must give the same bytes.
func keep(o *outcome, out map[int][]byte, key int, data []byte, err error) {
	o.attempted++
	if err != nil {
		o.failed++
		o.problem("%v", err)
		return
	}
	if prev, ok := out[key]; ok && !bytes.Equal(prev, data) {
		o.problem("job %d: a repeated run gave other bytes", key)
	}
	out[key] = data
}

// jobMetrics reports job latencies given in seconds.
func jobMetrics(c config, o *outcome, jobs []float64) {
	fmt.Fprintf(c.log, "# %s: %d jobs, seconds each: %.4g\n", c.workload, len(jobs), jobs)
	o.metrics["job_p50_ms"] = 1000 * median(jobs)
	o.metrics["job_p95_ms"] = 1000 * quantile(jobs, 0.95)
	o.metrics["jobs_per_s"] = float64(len(jobs)) / sum(jobs)
	o.metrics["peak_rss_mb"] = peakRSSMB()
}

// withProgressGaps returns opts recording in *gaps the milliseconds
// between settled sweep points (Workers: 1, so points settle in turn).
func withProgressGaps(opts experiments.Options, gaps *[]float64) experiments.Options {
	last := time.Now()
	opts.OnProgress = func(experiments.Progress) {
		now := time.Now()
		*gaps = append(*gaps, ms(now.Sub(last)))
		last = now
	}
	return opts
}

// csvColumn parses the named column of a CSV with a header row.
func csvColumn(data []byte, name string) ([]float64, error) {
	rows, err := csv.NewReader(bytes.NewReader(data)).ReadAll()
	if err != nil || len(rows) == 0 {
		return nil, fmt.Errorf("unreadable CSV: %v", err)
	}
	for i, h := range rows[0] {
		if h != name {
			continue
		}
		var out []float64
		for _, row := range rows[1:] {
			v, err := strconv.ParseFloat(row[i], 64)
			if err != nil {
				return nil, err
			}
			out = append(out, v)
		}
		return out, nil
	}
	return nil, fmt.Errorf("no column %q", name)
}

// matchesCSV reports whether a measurement prints as row i of a CSV
// artifact, column by column (%g round-trips a float64 exactly).
func matchesCSV(data []byte, i int, cols map[string]float64) bool {
	for name, want := range cols {
		got, err := csvColumn(data, name)
		if err != nil || i >= len(got) || got[i] != want {
			return false
		}
	}
	return true
}

func runFigures(c config) (*outcome, error) {
	o := newOutcome()
	opts := figureOptions(c.seed, c.size.figEvents)
	var golden map[int][]byte
	setup, err := measuredSetup(c.size.setups, func() (func(), error) {
		var err error
		if golden, err = loadGolden(c.root); err != nil {
			return nil, err
		}
		_, err = experiments.FigureCSV(1, figureOptions(c.seed, c.size.warmEvents))
		return func() {}, err
	})
	if err != nil {
		return nil, err
	}
	// One job is a pass rendering Figures 1, 2 and 3.
	out := map[int][]byte{}
	pass := func(opts experiments.Options) {
		for _, id := range figureIDs {
			data, err := experiments.FigureCSV(id, opts)
			keep(o, out, id, data, err)
		}
	}
	var gaps []float64
	if c.trace {
		pass(withProgressGaps(opts, &gaps))
	} else {
		passes := repeat(c.seconds, func() { pass(opts) })
		o.metrics["setup_s"] = setup
		o.metrics["wall_s"] = median(passes)
		jobMetrics(c, o, passes)
	}
	exact := c.seed == goldenSeed && c.size.figEvents == fullSize.figEvents
	for _, id := range figureIDs {
		if err := checkFigure(id, out[id], golden[id], exact); err != nil {
			o.problem("%v", err)
		}
	}
	if !c.trace {
		return o, nil
	}

	// Traced: replay every point with each layer wrapped; each replay
	// must reproduce MeasureRates, whose results must be the figure's.
	var layers simLayers
	var plain, traced time.Duration
	for _, id := range figureIDs {
		for i, x := range figureXs(id) {
			net := figureNet(id, x)
			start := time.Now()
			want, err := experiments.MeasureRates(net, opts)
			plain += time.Since(start)
			if err != nil {
				return nil, err
			}
			if !matchesCSV(out[id], i, map[string]float64{
				"f_hello simulation":   want.FHello,
				"f_cluster simulation": want.FCluster,
				"f_route simulation":   want.FRoute,
			}) {
				o.problem("figure %d point %d: the rebuilt scenario does not measure what the figure shows", id, i)
			}
			r, err := replay(net, opts, true)
			if err != nil {
				return nil, err
			}
			if r.meas != want {
				o.problem("figure %d point %d: traced replay differs from MeasureRates", id, i)
			}
			traced += r.wall
			layers.add(r, net.N)
		}
	}
	layers.metrics(o.metrics)
	o.metrics["experiments.point_ms"] = median(gaps)
	o.metrics["bench.trace_overhead"] = float64(traced) / float64(plain)
	return o, nil
}

func runScale(c config) (*outcome, error) {
	o := newOutcome()
	net := scaleNet(c.size.scaleN)
	opts := scaleOptions(c.seed, c.size.scaleEvents)
	setup, err := measuredSetup(c.size.setups, func() (func(), error) {
		_, err := experiments.MeasureCSV(net, scaleOptions(c.seed, c.size.scaleEvents/10))
		return func() {}, err
	})
	if err != nil {
		return nil, err
	}
	out := map[int][]byte{}
	pass := func(opts experiments.Options) {
		data, err := experiments.MeasureCSV(net, opts)
		keep(o, out, 0, data, err)
	}
	var gaps []float64
	if c.trace {
		pass(withProgressGaps(opts, &gaps))
	} else {
		jobs := repeat(c.seconds, func() { pass(opts) })
		o.metrics["setup_s"] = setup
		o.metrics["wall_s"] = median(jobs)
		jobMetrics(c, o, jobs)
	}
	if err := checkScale(out[0]); err != nil {
		o.problem("%v", err)
	}
	if !c.trace {
		return o, nil
	}

	// Traced: the wrapped replay must reproduce MeasureRates and leave the
	// engine's counters and the event core's schedule as an unwrapped
	// replay leaves them.
	want, err := experiments.MeasureRates(net, opts)
	if err != nil {
		return nil, err
	}
	if !matchesCSV(out[0], 0, map[string]float64{
		"duration": want.Duration, "mean_degree": want.MeanDegree, "link_change_rate": want.LinkChangeRate,
		"head_ratio": want.HeadRatio, "f_hello": want.FHello, "f_cluster": want.FCluster, "f_route": want.FRoute,
	}) {
		o.problem("scale: MeasureRates does not measure what MeasureCSV printed")
	}
	plain, err := replay(net, opts, false)
	if err != nil {
		return nil, err
	}
	traced, err := replay(net, opts, true)
	if err != nil {
		return nil, err
	}
	if err := sameReplay(plain, traced); err != nil {
		o.problem("scale: %v", err)
	}
	if plain.meas != want {
		o.problem("scale: replay differs from MeasureRates")
	}
	var layers simLayers
	layers.add(traced, net.N)
	layers.metrics(o.metrics)
	o.metrics["experiments.point_ms"] = median(gaps)
	o.metrics["bench.trace_overhead"] = float64(traced.wall) / float64(plain.wall)
	return o, nil
}

// sameReplay checks that wrapping the layers changed nothing the engine
// or the event core observed.
func sameReplay(plain, traced replayed) error {
	switch {
	case plain.meas != traced.meas:
		return fmt.Errorf("traced replay measured other rates")
	case plain.tallies != traced.tallies:
		return fmt.Errorf("traced replay changed the engine's tallies")
	case plain.events != traced.events:
		return fmt.Errorf("traced replay changed the event core's schedule: %+v, want %+v", traced.events, plain.events)
	case plain.index != traced.index || plain.ticks != traced.ticks:
		return fmt.Errorf("traced replay changed the spatial index's work")
	}
	return nil
}
