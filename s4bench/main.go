// Command s4bench is the repository's end-to-end benchmark. One invocation
// runs one named workload for a fixed time, checks every output it
// produces, and prints the metrics BENCHMARK.json declares: the end-to-end
// metrics from an untraced run (--trace 0), or the per-layer metrics from a
// traced run (--trace 1). The last line of standard output is one JSON
// object; the full result document (provenance, every raw sample, every
// job's latency, the per-workload breakdown) is written under .bench_build/.
//
// Run it from the repository root through the wrapper, which builds it:
//
//	bash s4bench/run.sh --workload suite-sync --seed 7 --seconds 50 --trace 0
//
// README.md in this directory maps every metric to its layer, to the
// end-to-end metric it should move and to the workload that shows it.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// threads is the parallelism of every suite run and serve job: the host
// this benchmark is sized for has 2 vCPUs.
const threads = 2

// workload is one named input set of the benchmark.
type workload struct {
	name string
	run  func(b *bench) error
}

var workloads = []workload{
	{"suite-sync", runSuiteSync},
	{"suite-compute", runSuiteCompute},
}

func runSuiteSync(b *bench) error    { return runSuite(b, syncRoster) }
func runSuiteCompute(b *bench) error { return runSuite(b, computeRoster) }

// metricDef declares one reported metric; the lists mirror BENCHMARK.json.
type metricDef struct{ name, unit string }

var endToEnd = []metricDef{
	{"lockfree_timed_s", "s"},
	{"classic_timed_s", "s"},
	{"round_s", "s"},
	{"jobs_per_s", "1/s"},
	{"job_p50_ms", "ms"},
	{"job_p90_ms", "ms"},
	{"read_p50_ms", "ms"},
	{"read_p90_ms", "ms"},
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
}

var perLayer = []metricDef{
	{"timed_ms.classic", "ms"},
	{"timed_ms.lockfree", "ms"},
	{"prepare_ms", "ms"},
	{"verify_ms", "ms"},
	{"sync_ops", "count"},
	{"blocked_ms.classic", "ms"},
	{"blocked_ms.lockfree", "ms"},
	{"norm_time_geomean", "ratio"},
	{"norm_time_ci_lo", "ratio"},
	{"norm_time_ci_hi", "ratio"},
	{"rep_bare_ms", "ms"},
	{"rep_traced_ms", "ms"},
	{"recorder_new_ms", "ms"},
	{"admit_ms", "ms"},
	{"queue_ms", "ms"},
	{"exec_ms", "ms"},
	{"notify_ms", "ms"},
	{"journal_append_ms", "ms"},
	{"index_bykey_us", "us"},
	{"bootstrap_ms", "ms"},
	{"trace_overhead", "ratio"},
}

// bench is one invocation's state: its arguments, the tally of attempted
// and failed operations, and the metrics and raw data it reports.
type bench struct {
	workload string
	seed     int64
	seconds  time.Duration
	traced   bool
	// dir is this run's private scratch directory under .bench_build.
	dir string

	tally
	metrics map[string]float64
	// detail is the result document's free-form part: raw samples,
	// per-workload breakdowns and layer inputs.
	detail map[string]any
	// spans holds the traced run's spans; nil in an untraced run.
	spans *tracer
}

func main() { os.Exit(run()) }

func run() int {
	name := flag.String("workload", "", "workload to run: suite-sync or suite-compute")
	seed := flag.Int64("seed", 1, "workload seed; every generated input derives from it")
	seconds := flag.Int("seconds", 20, "measurement time in seconds")
	traced := flag.Int("trace", 0, "0: untraced run, end-to-end metrics; 1: traced run, per-layer metrics")
	flag.Parse()

	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(os.Stderr, "s4bench: need --workload (one of %s), --seconds >= 1 and --trace 0|1\n", workloadNames())
		return 2
	}
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "s4bench: %v\n", err)
		return 1
	}
	dir, err := os.MkdirTemp(".bench_build", "run-")
	if err != nil {
		fmt.Fprintf(os.Stderr, "s4bench: %v\n", err)
		return 1
	}
	defer os.RemoveAll(dir)

	b := &bench{
		workload: w.name, seed: *seed, seconds: time.Duration(*seconds) * time.Second,
		traced: *traced == 1, dir: dir,
		metrics: make(map[string]float64), detail: make(map[string]any),
	}
	if b.traced {
		b.spans = newTracer()
	}
	if err := w.run(b); err != nil {
		fmt.Fprintf(os.Stderr, "s4bench: %s: %v\n", w.name, err)
		return 1
	}
	b.metrics["peak_rss_mb"] = peakRSSMB()
	return b.report()
}

func workloadNames() string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return strings.Join(names, ", ")
}

// metricValue is one entry of the final line's metrics object.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report prints the metrics table and the final JSON line, writes the full
// result document, and returns the exit code: non-zero when any check
// failed or a declared metric is missing.
func (b *bench) report() int {
	defs := endToEnd
	if b.traced {
		defs = perLayer
	}
	correct := b.failed == 0
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		v, ok := b.metrics[d.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			b.fail("metric %s was not measured", d.name)
			correct, v = false, -1
		}
		out[d.name] = metricValue{v, d.unit}
		fmt.Printf("%-22s %14.6g %s\n", d.name, v, d.unit)
	}
	failRatio := float64(b.failed) / float64(max(b.attempted, 1))
	fmt.Printf("%-22s %14.6g (%d failed of %d attempted)\n", "fail_ratio", failRatio, b.failed, b.attempted)
	for _, e := range b.errs {
		fmt.Fprintf(os.Stderr, "s4bench: check failed: %s\n", e)
	}

	doc := map[string]any{
		"workload": b.workload, "seed": b.seed, "seconds": b.seconds.Seconds(),
		"trace": b.traced, "correct": correct, "attempted": b.attempted,
		"failed": b.failed, "fail_ratio": failRatio, "errors": b.errs,
		"provenance": provenance(b.dir), "metrics": b.allMetrics(), "detail": b.detail,
	}
	stem := filepath.Join(".bench_build", "results", fmt.Sprintf("%s-seed%d-trace%v", b.workload, b.seed, b.traced))
	if err := writeJSON(stem+".json", doc); err != nil {
		fmt.Fprintf(os.Stderr, "s4bench: %v\n", err)
		correct = false
	} else {
		fmt.Fprintf(os.Stderr, "s4bench: result document in %s.json\n", stem)
	}
	if b.spans != nil {
		if err := writeJSON(stem+".spans.json", b.spans.snapshot()); err != nil {
			fmt.Fprintf(os.Stderr, "s4bench: %v\n", err)
			correct = false
		}
	}

	line, err := json.Marshal(map[string]any{
		"correct": correct, "attempted": max(b.attempted, 1), "failed": b.failed, "metrics": out,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "s4bench: %v\n", err)
		return 1
	}
	fmt.Println(string(line))
	if !correct {
		return 1
	}
	return 0
}

// allMetrics returns every finite metric measured, declared or not, for the
// result document.
func (b *bench) allMetrics() map[string]float64 {
	m := make(map[string]float64, len(b.metrics))
	for k, v := range b.metrics {
		if !math.IsNaN(v) && !math.IsInf(v, 0) {
			m[k] = v
		}
	}
	return m
}

func writeJSON(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return fmt.Errorf("encoding %s: %w", path, err)
	}
	return os.WriteFile(path, data, 0o644)
}

// phaseSplit divides a traced run's measurement time: the untraced phase
// and the traced phase each get this share, the fixed-size layer probes
// take the rest.
const phaseSplit = 0.4

// phaseLength is how long each phase of measured load runs: the whole
// measurement time for --trace 0; for --trace 1 the untraced and then the
// traced phase each run this long.
func (b *bench) phaseLength() time.Duration {
	if b.traced {
		return time.Duration(float64(b.seconds) * phaseSplit)
	}
	return b.seconds
}

// sortedKeys returns m's keys in order, so maps are walked
// deterministically.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
