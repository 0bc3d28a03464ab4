// Command perfbench is the repository benchmark. It generates a seeded
// workload with the simulator, drives it through the system the way users
// run it (the rfid library offline, or a separate rfidserve process over
// HTTP and the binary stream), checks the outputs, and prints every metric
// by name with its unit. The last line of standard output is one JSON
// object: {"correct", "attempted", "failed", "metrics"}.
//
// Usage (from the repository root; perfbench/run.sh builds both binaries):
//
//	perfbench -rfidserve BIN -work DIR --workload replay|live|cold --seed N --seconds S --trace 0|1
//
// With --trace 0 the JSON carries the end-to-end metrics, measured with all
// tracing off. With --trace 1 it carries the per-layer metrics of a separate
// traced run; that run also measures the workload untraced once, to report
// the tracing overhead. See perfbench/README.md for the metric definitions.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
)

// options are the parsed command-line settings shared by every workload.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	serveBin string
	workDir  string
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report collects a run's results: metrics holds the JSON metrics; the text
// lines, printed before the JSON, carry sample counts, the per-workload
// aliases of the end-to-end metrics and the per-layer metrics of layers only
// some workloads exercise.
type report struct {
	metrics   map[string]metric
	lines     []string
	attempted int
	failed    int
	checks    []error
}

func newReport() *report { return &report{metrics: map[string]metric{}} }

// set records a JSON metric and echoes it as a text line.
func (r *report) set(name string, v float64, unit string, note string) {
	r.metrics[name] = metric{Value: v, Unit: unit}
	r.printf("metric %s %s %s %s", name, fmtValue(v), unit, note)
}

// info records a text-only metric line.
func (r *report) info(name string, v float64, unit string, note string) {
	r.printf("info %s %s %s %s", name, fmtValue(v), unit, note)
}

func (r *report) printf(format string, args ...any) {
	r.lines = append(r.lines, strings.TrimSpace(fmt.Sprintf(format, args...)))
}

// check records the outcome of a correctness check.
func (r *report) check(name string, err error) {
	if err != nil {
		r.checks = append(r.checks, fmt.Errorf("%s: %w", name, err))
		r.printf("check %s FAILED: %v", name, err)
		return
	}
	r.printf("check %s ok", name)
}

func fmtValue(v float64) string { return fmt.Sprintf("%.6g", v) }

// setLatency records the median of one latency distribution as the JSON
// metric prefix_p50_ms, and prints its p90 and its highest percentile with at
// least ten samples beyond it (p99 when the run has 1000 samples, renamed
// otherwise), each with the sample count.
func (r *report) setLatency(prefix string, s samples, alias string) {
	n := len(s)
	r.set(prefix+"_p50_ms", s.quantile(0.5), "ms", fmt.Sprintf("n=%d %s", n, alias))
	r.info(prefix+"_p90_ms", s.quantile(0.9), "ms", fmt.Sprintf("n=%d beyond=%d", n, s.beyond(0.9)))
	if label, q, ok := s.tailQuantile(10); ok && label != "p90" {
		r.info(prefix+"_"+label+"_ms", s.quantile(q), "ms", fmt.Sprintf("n=%d beyond=%d", n, s.beyond(q)))
	}
}

func main() {
	var o options
	var traceFlag int
	flag.StringVar(&o.workload, "workload", "", "workload to run: replay, live or cold")
	flag.Int64Var(&o.seed, "seed", 1, "workload seed; the same seed generates the same inputs")
	flag.Float64Var(&o.seconds, "seconds", 10, "measured seconds per run")
	flag.IntVar(&traceFlag, "trace", 0, "1 = traced run reporting per-layer metrics")
	flag.StringVar(&o.serveBin, "rfidserve", "", "path of the rfidserve binary under test")
	flag.StringVar(&o.workDir, "work", ".bench_build/work", "scratch directory for data directories and logs")
	flag.Parse()
	o.trace = traceFlag != 0

	run := map[string]func(options) (*report, error){
		"replay": runReplay,
		"live":   runLive,
		"cold":   runCold,
	}[o.workload]
	if run == nil {
		fail(fmt.Errorf("unknown --workload %q (want replay, live or cold)", o.workload))
	}
	if o.seconds <= 0 {
		fail(fmt.Errorf("--seconds must be positive"))
	}
	var err error
	if spec, err = loadBenchmarkFile("BENCHMARK.json"); err != nil {
		fail(fmt.Errorf("run from the repository root: %w", err))
	}
	if o.workload != "replay" && o.serveBin == "" {
		fail(fmt.Errorf("--rfidserve is required for workload %s", o.workload))
	}
	dir, err := os.MkdirTemp(mustMkdir(o.workDir), o.workload+"-")
	if err != nil {
		fail(err)
	}
	o.workDir = dir
	defer os.RemoveAll(dir)

	fmt.Printf("context workload=%s seed=%d seconds=%g trace=%t nproc=%d gomaxprocs=%d go=%s live_rate_epochs_per_s=%g data_fs=%s\n",
		o.workload, o.seed, o.seconds, o.trace, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), liveRate, fsKind(dir))
	rep, err := run(o)
	if err != nil {
		os.RemoveAll(dir)
		fail(err)
	}
	rep.check("metric_set", checkMetricSet(rep, spec.wantMetrics(o.trace)))
	if n := running.Load(); n != 0 {
		rep.check("servers_stopped", fmt.Errorf("%d rfidserve processes still running", n))
	}
	for _, l := range rep.lines {
		fmt.Println(l)
	}
	for name, m := range rep.metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			rep.checks = append(rep.checks, fmt.Errorf("metric %s is not a number", name))
			m.Value = -1
			rep.metrics[name] = m
		}
	}
	out := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{len(rep.checks) == 0, rep.attempted, rep.failed, rep.metrics}
	js, err := json.Marshal(out)
	if err != nil {
		fail(err)
	}
	fmt.Println(string(js))
	if len(rep.checks) > 0 {
		for _, c := range rep.checks {
			fmt.Fprintln(os.Stderr, "perfbench: check failed:", c)
		}
		os.RemoveAll(dir)
		os.Exit(1)
	}
}

func mustMkdir(d string) string {
	if err := os.MkdirAll(d, 0o755); err != nil {
		fail(err)
	}
	abs, err := filepath.Abs(d)
	if err != nil {
		fail(err)
	}
	return abs
}

// fsKind names the file system a directory is on: tmpfs (memory-backed) or
// disk.
func fsKind(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	if st.Type == 0x01021994 { // TMPFS_MAGIC
		return "tmpfs"
	}
	return "disk"
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(2)
}

// metricNames lists a report's JSON metric names in order.
func (r *report) metricNames() []string {
	names := make([]string, 0, len(r.metrics))
	for n := range r.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
