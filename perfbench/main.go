// Command perfbench is the repository's benchmark. It runs one named
// workload through the public entry points — experiments.FigureCSV,
// experiments.MeasureCSV, and the service HTTP API with an in-process
// service.Worker — checks every output, and prints the metrics named in
// BENCHMARK.json as the last line of standard output:
//
//	go run . --workload figures --seed 1 --seconds 20 --trace 0
//
// With --trace 0 it prints the end-to-end metrics; with --trace 1 it
// replays the workload with every layer wrapped and prints the per-layer
// metrics. A failed output check prints "correct": false and exits 1; a
// workload whose precondition fails is not measured and exits 2 without
// printing a result. README.md describes the workloads and metrics.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"sort"
	"strings"
	"time"
)

// metricUnits lists every metric the benchmark prints, with its unit;
// BENCHMARK.json declares the same names (a test keeps them in step).
var metricUnits = map[string]string{
	// End to end.
	"setup_s":     "s",
	"wall_s":      "s",
	"job_p50_ms":  "ms",
	"job_p95_ms":  "ms",
	"jobs_per_s":  "jobs/s",
	"peak_rss_mb": "MB",

	// Per layer.
	"experiments.point_ms":        "ms",
	"netsim.step_ns":              "ns",
	"netsim.self_share":           "ratio",
	"netsim.deliveries_per_tick":  "count",
	"netsim.link_events_per_tick": "count",
	"space.requery_frac":          "ratio",
	"mobility.share":              "ratio",
	"routing.hello.share":         "ratio",
	"routing.hello.calls":         "count",
	"routing.hybrid.share":        "ratio",
	"routing.route_msgs_per_tick": "count",
	"cluster.share":               "ratio",
	"cluster.msgs_per_tick":       "count",
	"eventsim.topo_skip_frac":     "ratio",
	"eventsim.phase_skip_frac":    "ratio",
	"service.submit_ms":           "ms",
	"service.queue_wait_ms":       "ms",
	"service.run_ms":              "ms",
	"service.notify_ms":           "ms",
	"service.cache_hit_frac":      "ratio",
	"vfs.fsyncs_per_job":          "count",
	"vfs.write_bytes_per_job":     "bytes",
	"lease.claims_per_job":        "count",
	"lease.empty_claims_per_job":  "count",
	"lease.rpc_ms_per_job":        "ms",
	"dist.compute_share":          "ratio",
	"dist.done_to_terminal_ms":    "ms",
	"bench.gen_lag_ms":            "ms",
	"bench.trace_overhead":        "ratio",
}

// endToEnd names the metrics of an untraced run; every other metric in
// metricUnits belongs to the traced run.
var endToEnd = []string{"setup_s", "wall_s", "job_p50_ms", "job_p95_ms", "jobs_per_s", "peak_rss_mb"}

// sizes scales the workloads; the smoke test shrinks them.
type sizes struct {
	figEvents   float64 // figures: target link events per point
	scaleN      int     // scale: node count
	scaleEvents float64 // scale: target link events
	warmEvents  float64 // figures: events of the warm-up Figure 1
	daemonRate  float64 // daemon: offered jobs per second
	warmJobs    int     // daemon: jobs of the untimed warm-up pass
	warmHits    int     // daemon: cache-served resubmissions in that pass
	distEvents  float64 // distributed: events of each Figure 1 job
	setups      int     // set-ups per run; setup_s is their median
}

var fullSize = sizes{
	figEvents:   40_000,
	scaleN:      2_000,
	scaleEvents: 240_000,
	warmEvents:  2_000,
	daemonRate:  30,
	warmJobs:    40,
	warmHits:    4_000,
	distEvents:  4_000,
	setups:      3,
}

// config is one benchmark invocation.
type config struct {
	workload string
	seed     uint64
	seconds  time.Duration
	trace    bool
	size     sizes
	root     string    // checkout root: results/ holds the golden figures
	log      io.Writer // human-readable report lines
}

// outcome is what a workload measured and checked.
type outcome struct {
	attempted, failed int
	metrics           map[string]float64
	problems          []string // failed output checks
}

func newOutcome() *outcome { return &outcome{metrics: map[string]float64{}} }

func (o *outcome) problem(format string, args ...any) {
	o.problems = append(o.problems, fmt.Sprintf(format, args...))
}

// errNotMeasured marks a workload whose precondition does not hold on
// this host: it is reported with the reason and never gets a number.
var errNotMeasured = errors.New("not measured")

var workloads = map[string]func(config) (*outcome, error){
	"figures":     runFigures,
	"scale":       runScale,
	"daemon":      runDaemon,
	"distributed": runDistributed,
}

// measuredSetup runs set-up n times, tearing down all but the last, and
// returns the median set-up time. Each set-up starts with the memory of
// the ones before returned to the OS, so the peak RSS is that of one.
func measuredSetup(n int, setup func() (teardown func(), err error)) (float64, error) {
	var times []float64
	for i := 0; i < n; i++ {
		debug.FreeOSMemory()
		start := time.Now()
		teardown, err := setup()
		if err != nil {
			return 0, err
		}
		times = append(times, time.Since(start).Seconds())
		if i < n-1 {
			teardown()
		}
	}
	return median(times), nil
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// names returns the metrics a run prints: the end-to-end set untraced,
// every other metric traced.
func names(trace bool) []string {
	if !trace {
		return endToEnd
	}
	var out []string
	for name := range metricUnits {
		if !slices.Contains(endToEnd, name) {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out
}

// run executes one workload and writes its report and result line;
// the return value is the process exit code.
func run(c config, stdout io.Writer) int {
	fn, ok := workloads[c.workload]
	if !ok {
		fmt.Fprintf(c.log, "perfbench: unknown workload %q\n", c.workload)
		return 2
	}
	hostRecord(c)
	o, err := fn(c)
	if errors.Is(err, errNotMeasured) {
		fmt.Fprintf(c.log, "# %s: %v\n", c.workload, err)
		return 2
	}
	if err != nil {
		fmt.Fprintf(c.log, "perfbench: %s: %v\n", c.workload, err)
		return 1
	}
	res := result{Correct: len(o.problems) == 0, Attempted: o.attempted, Failed: o.failed, Metrics: map[string]metric{}}
	// Layers a workload does not run report 0.
	for _, name := range names(c.trace) {
		res.Metrics[name] = metric{Value: o.metrics[name], Unit: metricUnits[name]}
	}
	for _, p := range o.problems {
		fmt.Fprintf(c.log, "# check failed: %s\n", p)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(c.log, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !res.Correct || res.Attempted < 1 {
		return 1
	}
	return 0
}

// hostRecord reports what the numbers depend on.
func hostRecord(c config) {
	rev, dirty := "unavailable (not built from a git checkout)", "unknown"
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				dirty = s.Value
			}
		}
	}
	fmt.Fprintf(c.log, "# host: nproc=%d GOMAXPROCS=%d go=%s git=%s dirty=%s\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), rev, dirty)
	fmt.Fprintf(c.log, "# run: workload=%s seed=%d seconds=%g trace=%t\n",
		c.workload, c.seed, c.seconds.Seconds(), c.trace)
}

func main() {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	workload := fs.String("workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	seed := fs.Uint64("seed", 1, "workload seed")
	seconds := fs.Int("seconds", 20, "seconds to measure")
	trace := fs.Int("trace", 0, "1 runs the traced replay and prints per-layer metrics")
	if err := fs.Parse(os.Args[1:]); err != nil {
		os.Exit(2)
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		os.Exit(2)
	}
	root, err := checkoutRoot()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	os.Exit(run(config{
		workload: *workload,
		seed:     *seed,
		seconds:  time.Duration(*seconds) * time.Second,
		trace:    *trace == 1,
		size:     fullSize,
		root:     root,
		log:      os.Stdout,
	}, os.Stdout))
}

func workloadNames() []string {
	var out []string
	for name := range workloads {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// checkoutRoot finds the directory holding BENCHMARK.json: the working
// directory or, when run from perfbench/, its parent.
func checkoutRoot() (string, error) {
	for _, dir := range []string{".", ".."} {
		if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
			return filepath.Abs(dir)
		}
	}
	return "", errors.New("BENCHMARK.json not found in . or ..")
}
