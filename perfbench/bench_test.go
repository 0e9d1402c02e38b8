package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/netsim"
	"repro/internal/service"
)

// tinySize runs every workload in a few seconds.
var tinySize = sizes{
	figEvents:   6_000,
	scaleN:      1_000,
	scaleEvents: 20_000,
	warmEvents:  1_000,
	daemonRate:  30,
	warmJobs:    4,
	warmHits:    20,
	distEvents:  1_000,
	setups:      1,
}

type benchmarkFile struct {
	EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkFile
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

func TestMetricTableMatchesBenchmarkFile(t *testing.T) {
	b := readBenchmarkFile(t)
	declared := map[string]string{}
	for _, m := range append(b.EndToEnd, b.PerLayer...) {
		declared[m.Name] = m.Unit
	}
	for name, unit := range metricUnits {
		if declared[name] != unit {
			t.Errorf("metric %s: perfbench prints unit %q, BENCHMARK.json declares %q", name, unit, declared[name])
		}
	}
	for name := range declared {
		if _, ok := metricUnits[name]; !ok {
			t.Errorf("BENCHMARK.json declares %s, which perfbench does not print", name)
		}
	}
	for _, m := range b.EndToEnd {
		if !slices.Contains(endToEnd, m.Name) {
			t.Errorf("%s is end-to-end in BENCHMARK.json only", m.Name)
		}
	}
}

// TestSmokeEveryWorkload runs every workload at a tiny size, untraced and
// traced, and checks that the result line carries every metric
// BENCHMARK.json names, with its unit, and passes its output checks.
func TestSmokeEveryWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	b := readBenchmarkFile(t)
	root, err := filepath.Abs("..")
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloadNames() {
		for _, trace := range []bool{false, true} {
			var stdout, log bytes.Buffer
			c := config{workload: w, seed: 7, seconds: time.Second, trace: trace, size: tinySize, root: root, log: &log}
			if code := run(c, &stdout); code != 0 {
				t.Fatalf("%s trace=%t: exit %d\n%s", w, trace, code, log.String())
			}
			lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
			var res result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%s trace=%t: last line: %v", w, trace, err)
			}
			if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
				t.Errorf("%s trace=%t: correct=%t attempted=%d failed=%d", w, trace, res.Correct, res.Attempted, res.Failed)
			}
			want := b.EndToEnd
			if trace {
				want = b.PerLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%t: %d metrics, want %d", w, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s trace=%t: %s missing", w, trace, m.Name)
				case got.Unit != m.Unit:
					t.Errorf("%s trace=%t: %s unit %q, want %q", w, trace, m.Name, got.Unit, m.Unit)
				case !trace && got.Value <= 0:
					t.Errorf("%s: end-to-end %s = %g, want > 0", w, m.Name, got.Value)
				}
			}
		}
	}
}

func TestOneByteCorruptionFailsTheChecks(t *testing.T) {
	golden, err := loadGolden("..")
	if err != nil {
		t.Fatal(err)
	}
	for _, fig := range figureIDs {
		if err := checkFigure(fig, golden[fig], golden[fig], true); err != nil {
			t.Fatalf("figure %d: the published CSV fails its own check: %v", fig, err)
		}
		bad := append([]byte(nil), golden[fig]...)
		bad[len(bad)/2] ^= 1
		if checkFigure(fig, bad, golden[fig], true) == nil {
			t.Errorf("figure %d: a one-byte corruption passed the check", fig)
		}
	}

	specs := []service.JobSpec{measureSpec(3)}
	good, err := measureReference(specs[0])
	if err != nil {
		t.Fatal(err)
	}
	bad := append([]byte(nil), good...)
	bad[len(bad)-2] ^= 1
	for name, runs := range map[string][]jobRun{
		"first result":    {{data: bad}},
		"repeated result": {{data: good}, {data: bad}},
	} {
		o := newOutcome()
		checkRuns(o, runs, specs, measureReference)
		if len(o.problems) == 0 {
			t.Errorf("a one-byte corruption of the %s passed the check", name)
		}
	}
	o := newOutcome()
	checkRuns(o, []jobRun{{data: good}, {data: good}}, specs, measureReference)
	if len(o.problems) != 0 {
		t.Errorf("correct results failed the check: %v", o.problems)
	}
}

// TestWrappersLeaveTheEngineUnchanged: the traced replay must reproduce
// MeasureRates on both cores, and on the event core leave the tallies and
// the schedule (eventsim.Stats) exactly as an unwrapped replay leaves
// them. The scenario is slow and sparse so that the event core does skip
// topology evaluations: it only can while the wrapped model still offers
// mobility.Predictable.
func TestWrappersLeaveTheEngineUnchanged(t *testing.T) {
	net := core.Network{N: 30, Density: 0.05, R: 1.5, V: 0.05}
	for _, c := range []netsim.Core{netsim.CoreTick, netsim.CoreEvent} {
		opts := figureOptions(5, 1_500)
		opts.Core = c
		plain, err := replay(net, opts, false)
		if err != nil {
			t.Fatal(err)
		}
		traced, err := replay(net, opts, true)
		if err != nil {
			t.Fatal(err)
		}
		if err := sameReplay(plain, traced); err != nil {
			t.Errorf("core %v: %v", c, err)
		}
		want, err := experiments.MeasureRates(net, opts)
		if err != nil {
			t.Fatal(err)
		}
		if plain.meas != want {
			t.Errorf("core %v: replay measured %+v, MeasureRates %+v", c, plain.meas, want)
		}
		if c == netsim.CoreEvent && (plain.events.SkippedTopo == 0 || plain.events.SkippedPhases == 0) {
			t.Errorf("the scenario exercises no event-core skips: %+v", plain.events)
		}
	}
}
