// Command perfbench is the repository's end-to-end benchmark. It
// measures the program's two uses — reproducing the paper offline and
// serving phase detection online — on three workloads:
//
//	paper-sweep             synth → trace → baseline + sweep/core → score
//	stream-ids              one node, dense-ID framed streams
//	gateway-durable-branch  gateway over two durable nodes, branch frames
//	                        and one-shot POSTs, then a crash and recovery
//
// Usage (from the repository root, see run.sh):
//
//	perfbench --workload stream-ids --seed 1 --seconds 12 --trace 0
//
// With --trace 0 the last line of standard output is a JSON object with
// every end-to-end metric; with --trace 1 it carries every per-layer
// metric, taken from a traced pass that runs after a plain one. Every
// run checks the program's outputs against the reference detector in
// ref.go and the properties in check.go; correct is false when any
// check failed.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// limit bounds a whole run: set-up, measurement, checks and teardown.
const limit = 170 * time.Second

// metricDef names one reported metric and its unit.
type metricDef struct {
	name, unit string
}

// endToEnd lists the metrics of a plain run. Every workload reports
// every one of them. They are the figures that hold still on a shared
// host; wall-clock throughput and latency follow the host's scheduler
// and disk and are reported per layer, under wall.*.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"elems_per_cpu_s", "elements/CPU-s"},
	{"elems_per_cal_op", "elements/cal-op"},
	{"alloc_bytes_per_elem", "B/element"},
	{"rss_mb", "MiB"},
}

// stages are the serve pipeline stages the layer ledger reports.
var stages = []string{"read", "decode", "detect", "publish", "wal_append", "wal_fsync", "snapshot"}

// perLayer lists the metrics of a traced run. A layer a workload does
// not exercise reads 0 there.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"wall.elems_per_s", "elements/s"},
		{"wall.op_p50_ms", "ms"},
		{"wall.op_p99_ms", "ms"},
		{"synth.elems_per_s", "elements/s"},
		{"trace.intern_elems_per_s", "elements/s"},
		{"baseline.compute_s", "s"},
		{"score.evaluate_s", "s"},
		{"core.detect_s", "s"},
		{"core.constant_elems_per_s", "elements/s"},
		{"core.adaptive_elems_per_s", "elements/s"},
		{"core.fixed_elems_per_s", "elements/s"},
		{"core.unweighted_elems_per_s", "elements/s"},
		{"core.weighted_elems_per_s", "elements/s"},
		{"core.sims_per_kelem", "sims/kelem"},
		{"sweep.worker_util", "ratio"},
		{"core.ids_floor_elems_per_s", "elements/s"},
		{"core.branch_floor_elems_per_s", "elements/s"},
		{"serve.send_us", "us"},
	}
	for _, st := range stages {
		defs = append(defs, metricDef{"serve.stage." + st + "_busy_s", "s"}, metricDef{"serve.stage." + st + "_p50_us", "us"})
	}
	return append(defs,
		metricDef{"serve.ack_residual_us", "us"},
		metricDef{"serve.event_p50_ms", "ms"},
		metricDef{"serve.open_p50_ms", "ms"},
		metricDef{"serve.sessions_active", "count"},
		metricDef{"serve.sessions_len", "count"},
		metricDef{"durable.wal_bytes_per_elem", "B/element"},
		metricDef{"durable.replay_records_per_s", "records/s"},
		metricDef{"durable.recover_s", "s"},
		metricDef{"cluster.hop_open_ms", "ms"},
		metricDef{"cluster.requests", "count"},
		metricDef{"go.gc_cycles", "count"},
		metricDef{"go.peak_rss_mb", "MiB"},
		metricDef{"bench.gen_late_ms", "ms"},
		metricDef{"host.cal_ops_per_cpu_s", "ops/CPU-s"},
		metricDef{"bench.tracing_overhead", "ratio"},
	)
}()

// params is one pass of a workload.
type params struct {
	seed    int64
	seconds float64 // length of the measured phase
	tiny    bool    // test-sized inputs
	dataDir string  // scratch directory for durable nodes
	tr      *tracer // nil for a plain pass
	rate    int     // stream-ids' paced chunks/s per slot; 0 means pacedChunksPerSlot
}

// outcome is what a pass measured and checked.
type outcome struct {
	attempted, failed int64
	violations        []string
	m                 map[string]float64
}

func newOutcome() *outcome { return &outcome{m: map[string]float64{}} }

// fail counts a failed operation.
func (o *outcome) fail(format string, args ...any) {
	o.failed++
	fmt.Fprintf(os.Stderr, "perfbench: failed: %s\n", fmt.Sprintf(format, args...))
}

// violate records a failed correctness check.
func (o *outcome) violate(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	if len(o.violations) < 20 {
		fmt.Fprintf(os.Stderr, "perfbench: check failed: %s\n", msg)
	}
	o.violations = append(o.violations, msg)
}

// workloads maps each workload name to its pass.
var workloads = map[string]func(params) (*outcome, error){
	"paper-sweep":            runPaperSweep,
	"stream-ids":             runStreamIDs,
	"gateway-durable-branch": runGatewayDurable,
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultOut struct {
	Correct   bool                 `json:"correct"`
	Attempted int64                `json:"attempted"`
	Failed    int64                `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

func main() {
	workload := flag.String("workload", "", "workload to run: paper-sweep, stream-ids or gateway-durable-branch")
	seed := flag.Int64("seed", 1, "input seed: the same seed gives the same inputs")
	seconds := flag.Float64("seconds", 10, "length of the measured phase in seconds")
	traced := flag.Int("trace", 0, "1 reports per-layer metrics from a traced pass, 0 end-to-end metrics from a plain one")
	flag.Parse()
	run, ok := workloads[*workload]
	if !ok || *seconds <= 0 || *seconds > 60 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %g, trace %d)\n", *workload, *seconds, *traced)
		os.Exit(2)
	}
	// A run that hangs is a failure, reported before the caller's
	// deadline rather than after it.
	time.AfterFunc(limit, func() {
		fmt.Fprintf(os.Stderr, "perfbench: %s did not finish within %v\n", *workload, limit)
		os.Exit(3)
	})
	res, err := benchmark(*workload, run, *seed, *seconds, *traced == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

// benchmark runs one workload and assembles the result line.
func benchmark(name string, run func(params) (*outcome, error), seed int64, seconds float64, traced bool) (*resultOut, error) {
	nproc := runtime.NumCPU()
	runtime.GOMAXPROCS(nproc)
	baseGoroutines := runtime.NumGoroutine()
	calBefore := calibrate()

	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		return nil, err
	}
	dataDir, err := os.MkdirTemp(".bench_build", "data-")
	if err != nil {
		return nil, fmt.Errorf("creating data dir: %w", err)
	}
	defer os.RemoveAll(dataDir)

	p := params{seed: seed, seconds: seconds, dataDir: dataDir}
	var plain, tracedOut *outcome
	if traced {
		// The plain half gives the denominator of the tracing overhead.
		p.seconds = seconds / 2
	}
	if plain, err = run(p); err != nil {
		return nil, err
	}
	final := plain
	if traced {
		p.tr = newTracer()
		if tracedOut, err = run(p); err != nil {
			return nil, err
		}
		final = tracedOut
		if err := p.tr.write(filepath.Join(".bench_build", "trace-"+name+".json")); err != nil {
			return nil, err
		}
	}

	settled := settle(baseGoroutines, 10*time.Second)
	calAfter := calibrate()
	// The denominator pools both calibrations' timings: their median
	// holds steadier than either half's.
	cal := median(append(calBefore, calAfter...))
	rss := peakRSSMiB()
	fmt.Printf("host: nproc %d, GOMAXPROCS %d, %s %s/%s; calibration %.4g ops/CPU-s before, %.4g after; goroutines settled %v\n",
		nproc, runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH, median(calBefore), median(calAfter), settled)

	res := &resultOut{Metrics: map[string]metricOut{}}
	var attempted, failed int64
	var violations []string
	for _, o := range []*outcome{plain, tracedOut} {
		if o != nil {
			attempted += o.attempted
			failed += o.failed
			violations = append(violations, o.violations...)
		}
	}
	res.Attempted, res.Failed, res.Correct = attempted, failed, len(violations) == 0
	if !settled {
		res.Correct = false
		fmt.Fprintln(os.Stderr, "perfbench: check failed: goroutines did not settle after teardown")
	}
	defs := endToEnd
	if traced {
		defs = perLayer
		final.m["host.cal_ops_per_cpu_s"] = cal
		if plain.m["elems_per_cpu_s"] > 0 {
			final.m["bench.tracing_overhead"] = final.m["elems_per_cpu_s"] / plain.m["elems_per_cpu_s"]
		}
	} else {
		final.m["elems_per_cal_op"] = final.m["elems_per_cpu_s"] / cal
	}
	final.m["go.peak_rss_mb"] = rss
	var names []string
	for _, d := range defs {
		res.Metrics[d.name] = metricOut{Value: final.m[d.name], Unit: d.unit}
		names = append(names, fmt.Sprintf("%s=%.6g", d.name, final.m[d.name]))
	}
	sort.Strings(names)
	fmt.Printf("%s seed %d: attempted %d, failed %d, correct %v\n  %s\n", name, seed, attempted, failed, res.Correct, strings.Join(names, "\n  "))
	return res, nil
}

// settle waits until the goroutine count is back to base (the program's
// servers, janitors and connections have all exited), up to wait.
func settle(base int, wait time.Duration) bool {
	deadline := time.Now().Add(wait)
	for {
		runtime.GC()
		if runtime.NumGoroutine() <= base {
			return true
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			n := runtime.Stack(buf, true)
			fmt.Fprintf(os.Stderr, "perfbench: %d goroutines left (base %d):\n%s\n", runtime.NumGoroutine(), base, buf[:n])
			return false
		}
		time.Sleep(20 * time.Millisecond)
	}
}
