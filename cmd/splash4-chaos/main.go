// Command splash4-chaos is the suite's fault-injection gate: it runs real
// workloads under the faulty kit decorator (internal/sync4/faulty) with the
// harness watchdog armed and proves two properties end to end:
//
//  1. Semantics survive chaos. For each workload × kit, a clean run and a
//     run under a deterministic fault schedule (delays at CAS retry points,
//     barrier stragglers, spurious flag wakeups — all seeded by
//     -chaos-seed) must both verify and must produce identical
//     synchronization censuses. Injected schedule noise may change timing,
//     never results.
//  2. Stalls are diagnosed, not hung. With -wedge the binary runs a
//     deliberately deadlocked fixture instead and requires the watchdog to
//     fire with a structured diagnosis (written to -diag for CI artifacts);
//     a silent hang or a clean exit is the failure.
//
// A third mode gates the cluster layer: with -cluster the binary runs the
// 3-node partition-tolerance schedule (clustertest.Chaos) — asymmetric
// partition during stealing, latency storm during shipping, origin
// crash-restart mid-tail — and requires zero lost jobs, observable breaker
// transitions, and a byte-identical three-way /compare after the heal.
//
// `make chaos` runs the first two modes and `make cluster-chaos` the third,
// all with a pinned seed. A failure reproduces by rerunning with the same
// -chaos-seed; see docs/ROBUSTNESS.md.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/sync4"
	"repro/internal/sync4/classic"
	"repro/internal/sync4/faulty"
	"repro/internal/sync4/lockfree"
	"repro/internal/trace"
	"repro/internal/workloads/all"
)

func main() {
	var (
		seed       = flag.Int64("chaos-seed", 42, "fault schedule seed; rerun with the same value to reproduce a failure")
		workloads  = flag.String("workloads", "fft,radix", "comma-separated workloads to run under fault injection")
		threads    = flag.Int("threads", 4, "worker threads per run")
		scale      = flag.String("scale", "test", "input scale: test, small, default, large")
		inputSeed  = flag.Int64("seed", 1, "workload input generation seed")
		repTimeout = flag.Duration("rep-timeout", 2*time.Minute, "watchdog deadline per repetition")
		wedge      = flag.Bool("wedge", false, "run the deliberately wedged fixture and require a watchdog diagnosis")
		diag       = flag.String("diag", "", "write the stall diagnosis here (with -wedge)")
		clusterRun = flag.Bool("cluster", false, "run the 3-node partition-tolerance gate instead of workload fault injection")
		out        = flag.String("out", "", "write the cluster gate report JSON here (with -cluster)")
		decisions  = flag.String("decisions", "", "write the netfaulty decision log here (with -cluster)")
	)
	flag.Parse()

	if *clusterRun {
		if err := runCluster(*seed, *out, *decisions); err != nil {
			fatal(err)
		}
		return
	}

	if *wedge {
		if err := runWedge(*threads, *repTimeout, *diag); err != nil {
			fatal(err)
		}
		return
	}

	sc, err := parseScale(*scale)
	if err != nil {
		fatal(err)
	}
	failures := 0
	for _, name := range strings.Split(*workloads, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		bench, err := all.ByName(name)
		if err != nil {
			fatal(err)
		}
		for _, base := range []sync4.Kit{classic.New(), lockfree.New()} {
			if err := chaosGate(bench, base, sc, *threads, *inputSeed, *seed, *repTimeout); err != nil {
				fmt.Fprintf(os.Stderr, "FAIL %s/%s: %v\n", name, base.Name(), err)
				failures++
			}
		}
	}
	if failures > 0 {
		fatal(fmt.Errorf("%d workload×kit combinations failed under fault injection (reproduce with -chaos-seed %d)", failures, *seed))
	}
	fmt.Println("chaos: ok")
}

// chaosGate runs bench twice — clean and under the Mild fault schedule —
// with verification and instrumentation on, and requires identical
// synchronization censuses. The watchdog is armed on both runs so a
// chaos-induced deadlock fails with a diagnosis instead of hanging the
// gate.
func chaosGate(bench core.Benchmark, base sync4.Kit, sc core.Scale, threads int, inputSeed, chaosSeed int64, repTimeout time.Duration) error {
	opt := harness.Options{
		Reps: 1, Verify: true, Instrument: true,
		RepTimeout: repTimeout,
		Trace:      trace.NewRecorder(2*threads+2, 1<<16),
	}
	cfg := core.Config{Threads: threads, Kit: base, Scale: sc, Seed: inputSeed}

	clean, err := harness.Run(bench, cfg, opt)
	if err != nil {
		return fmt.Errorf("clean run: %w", err)
	}

	inj := faulty.New(faulty.Mild(chaosSeed))
	cfg.Kit = inj.Wrap(base)
	opt.Trace = trace.NewRecorder(2*threads+2, 1<<16)
	chaos, err := harness.Run(bench, cfg, opt)
	if err != nil {
		if chaos.Stall != nil {
			fmt.Fprintln(os.Stderr, chaos.Stall.String())
		}
		return fmt.Errorf("run under fault injection: %w", err)
	}

	rep := inj.Report()
	if rep.Total() == 0 {
		return fmt.Errorf("no faults injected (%d kit operations); the comparison tested nothing", rep.Ops)
	}
	if !clean.HasSync || !chaos.HasSync {
		return fmt.Errorf("missing instrumentation census (clean=%v chaos=%v)", clean.HasSync, chaos.HasSync)
	}
	if clean.Sync != chaos.Sync {
		return fmt.Errorf("census diverged under semantics-preserving faults:\nclean %+v\nchaos %+v", clean.Sync, chaos.Sync)
	}
	fmt.Printf("ok %s/%s: census %d ops identical, %d faults injected over %d kit ops (clean %v, chaos %v)\n",
		clean.Bench, base.Name(), clean.Sync.Total(), rep.Total(), rep.Ops,
		clean.Times.Mean().Round(time.Microsecond), chaos.Times.Mean().Round(time.Microsecond))
	return nil
}

// wedgeBench deadlocks every worker after one counter increment — the
// fixture the watchdog acceptance check runs against. The block channel is
// never closed; the abandoned goroutines die with the process.
type wedgeBench struct {
	block chan struct{}
}

func (w *wedgeBench) Name() string        { return "wedge" }
func (w *wedgeBench) Description() string { return "deliberately deadlocked watchdog fixture" }

func (w *wedgeBench) Prepare(cfg core.Config) (core.Instance, error) {
	return &wedgeInstance{b: w, ctr: cfg.Kit.NewCounter(), threads: cfg.Threads}, nil
}

type wedgeInstance struct {
	b       *wedgeBench
	ctr     sync4.Counter
	threads int
}

func (i *wedgeInstance) Run() error {
	core.Parallel(i.threads, func(int) {
		i.ctr.Inc() // one heartbeat per lane, then wedge
		<-i.b.block
	})
	return nil
}

func (i *wedgeInstance) Verify() error { return nil }

// runWedge requires the watchdog to catch the wedged fixture and produce a
// structured diagnosis; the full text goes to diagPath for CI artifact
// upload.
func runWedge(threads int, repTimeout time.Duration, diagPath string) error {
	rec := trace.NewRecorder(2*threads+2, 1<<12)
	res, err := harness.Run(&wedgeBench{block: make(chan struct{})},
		core.Config{Threads: threads, Kit: lockfree.New()},
		harness.Options{Reps: 1, RepTimeout: repTimeout, Trace: rec})
	if err == nil {
		return fmt.Errorf("the wedged fixture completed; the watchdog never fired")
	}
	if !errors.Is(err, harness.ErrStalled) {
		return fmt.Errorf("wedged fixture failed with %w, want a watchdog stall", err)
	}
	if res.Stall == nil {
		return fmt.Errorf("watchdog fired without a diagnosis")
	}
	if res.Stall.Kind != harness.StallDeadlock {
		return fmt.Errorf("stall classified as %q, want deadlock", res.Stall.Kind)
	}
	if diagPath != "" {
		if err := os.WriteFile(diagPath, []byte(res.Stall.String()), 0o644); err != nil {
			return fmt.Errorf("writing diagnosis: %w", err)
		}
	}
	fmt.Printf("wedge: watchdog fired as required — %s\n", res.Stall.Brief())
	return nil
}

func parseScale(s string) (core.Scale, error) {
	switch s {
	case "test":
		return core.ScaleTest, nil
	case "small":
		return core.ScaleSmall, nil
	case "default":
		return core.ScaleDefault, nil
	case "large":
		return core.ScaleLarge, nil
	}
	return 0, fmt.Errorf("unknown scale %q (want test, small, default or large)", s)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "splash4-chaos:", err)
	os.Exit(1)
}
