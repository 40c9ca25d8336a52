package main

import (
	"context"
	"fmt"
	"math"
	"math/rand/v2"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/resultstore"
	"repro/internal/server"
	"repro/internal/stats"
	"repro/internal/trace"
)

// The traced run's layer probes: fixed-size calls into one layer each,
// made after the measured load, on the workload's own roster and samples.

// repTimeout is splash4d's default per-rep watchdog, which the rep probe
// arms exactly as the server does.
const repTimeout = 5 * time.Minute

// traceCapacity is splash4d's default per-lane trace capacity.
const traceCapacity = 1 << 16

// traceOverhead is the traced phase's wall time per job over the untraced
// phase's.
func traceOverhead(untracedJobs int, untracedS float64, tracedJobs int, tracedS float64) float64 {
	return (tracedS / float64(tracedJobs)) / (untracedS / float64(untracedJobs))
}

// timedLayers sets the per-kit timed sums and the paper's normalized time
// (lockfree over classic, geometric mean over the roster) with a bootstrap
// interval, from one phase's timed samples by cell.
func (b *bench) timedLayers(timed map[string][]float64) {
	for _, kit := range kits {
		b.metrics["timed_ms."+kit.Name()] = kitMedianSum(timed, kit.Name())
	}
	var pairs [][2][]float64
	for _, key := range sortedKeys(timed) {
		if wl, ok := strings.CutSuffix(key, ".classic"); ok {
			if lf := timed[cellKey(wl, "lockfree")]; len(lf) > 0 {
				pairs = append(pairs, [2][]float64{timed[key], lf})
			}
		}
	}
	point, lo, hi := normTimeCI(pairs, 2000, b.seed)
	b.metrics["norm_time_geomean"] = point
	b.metrics["norm_time_ci_lo"] = lo
	b.metrics["norm_time_ci_hi"] = hi
}

// normTimeCI returns the geometric mean over workloads of mean(lockfree) /
// mean(classic) with a 95% percentile-bootstrap interval that resamples
// every workload's two samples jointly.
func normTimeCI(pairs [][2][]float64, resamples int, seed int64) (point, lo, hi float64) {
	if len(pairs) == 0 {
		return math.NaN(), math.NaN(), math.NaN()
	}
	geo := func(draw func([]float64) float64) float64 {
		var logSum float64
		for _, p := range pairs {
			logSum += math.Log(draw(p[1]) / draw(p[0]))
		}
		return math.Exp(logSum / float64(len(pairs)))
	}
	point = geo(stats.Mean)
	rng := rand.New(rand.NewPCG(uint64(seed), 3))
	resample := func(xs []float64) float64 {
		var sum float64
		for range xs {
			sum += xs[rng.IntN(len(xs))]
		}
		return sum / float64(len(xs))
	}
	ratios := make([]float64, resamples)
	for i := range ratios {
		ratios[i] = geo(resample)
	}
	return point, quantile(ratios, 0.025), quantile(ratios, 0.975)
}

// checkCensus checks that each workload's sync census is identical under
// both kits and returns the census summed over the roster.
func (b *bench) checkCensus(members []member, census map[string]int64) float64 {
	var total int64
	for _, m := range members {
		c, l := census[cellKey(m.name, "classic")], census[cellKey(m.name, "lockfree")]
		if c != l || c == 0 {
			b.fail("%s: sync census differs across kits: classic %d, lockfree %d", m.name, c, l)
			continue
		}
		b.ok()
		total += c
	}
	return float64(total)
}

// coreLayers sets prepare_ms, verify_ms and sync_ops from traced cells:
// the sums over the roster of each workload's median prepare and verify
// spans, and of its census.
func (b *bench) coreLayers(members []member, census map[string]int64) {
	b.metrics["prepare_ms"] = medianSum(b.spans.byAttr("prepare"))
	b.metrics["verify_ms"] = medianSum(b.spans.byAttr("verify"))
	b.metrics["sync_ops"] = b.checkCensus(members, census)
	b.detail["sync_ops"] = census
}

// probeLayers runs every layer probe: the suite core's and the trace
// recorder's on the workload's roster, then the service's, whose layers are
// off the suites' hot path, through a probe splash4d.
func (b *bench) probeLayers(members []member, timed map[string][]float64) error {
	b.repProbe(members)
	b.recorderProbe()
	b.bootstrapProbe(timed)
	if err := b.journalProbe(members); err != nil {
		return err
	}
	return b.serviceProbe(members)
}

// serviceProbe starts a splash4d on a scratch journal, drives one pass of
// the roster's test-scale specs through it with a reader beside it, then
// calls ExecuteSpec directly on the same cells.
func (b *bench) serviceProbe(members []member) error {
	env, err := startServe(filepath.Join(b.dir, "probe-journal.jsonl"))
	if err != nil {
		return err
	}
	st := newJobStream(members, b.seed)
	b.detail["service_probe"] = servicePass(b, env, st, b.spans)
	b.serviceLayers()
	b.execProbe(env, members)
	return env.stop()
}

// repProbe times harness.Run on the test-scale spec mix of the roster with
// {Reps: 1, Verify}, bare and with Instrument plus a trace recorder built as
// splash4d builds them, three passes alternating which goes first. The
// instrumented runs also check the census is identical under both kits.
func (b *bench) repProbe(members []member) {
	bare, traced := make(map[string][]float64), make(map[string][]float64)
	census := make(map[string]int64)
	for pass := 0; pass < 3; pass++ {
		for i, m := range members {
			for _, kit := range kits {
				key := cellKey(m.name, kit.Name())
				cfg := core.Config{Threads: threads, Kit: kit, Scale: core.ScaleTest, Seed: m.seed}
				for k := 0; k < 2; k++ {
					opt := harness.Options{Reps: 1, Verify: true, RepTimeout: repTimeout}
					instrumented := (pass+i+k)%2 == 1
					if instrumented {
						opt.Instrument = true
						opt.Trace = trace.NewRecorder(2*threads+2, traceCapacity)
					}
					res, err := harness.Run(m.bench, cfg, opt)
					if err != nil {
						b.fail("rep probe %s: %v", key, err)
						continue
					}
					b.ok()
					if instrumented {
						traced[key] = append(traced[key], ms(res.Times.Mean()))
						census[key] = res.Sync.Total()
					} else {
						bare[key] = append(bare[key], ms(res.Times.Mean()))
					}
				}
			}
		}
	}
	b.metrics["rep_bare_ms"] = medianSum(bare)
	b.metrics["rep_traced_ms"] = medianSum(traced)
	b.detail["rep_probe"] = map[string]any{"bare_ms": bare, "traced_ms": traced, "sync_ops": census}
	b.checkCensus(members, census)
}

// recorderProbe times the trace recorder every splash4d job allocates.
func (b *bench) recorderProbe() {
	var xs []float64
	for i := 0; i < 20; i++ {
		start := time.Now()
		rec := trace.NewRecorder(2*threads+2, traceCapacity)
		xs = append(xs, ms(time.Since(start)))
		rec.Reset()
	}
	b.metrics["recorder_new_ms"] = median(xs)
}

// journalProbe times durable appends of server-shaped records to a scratch
// SyncAlways journal, then ByKey lookups on its index.
func (b *bench) journalProbe(members []member) error {
	store, err := resultstore.OpenWithOptions(filepath.Join(b.dir, "append-probe.jsonl"),
		resultstore.Options{Sync: resultstore.SyncAlways})
	if err != nil {
		return err
	}
	var appends []float64
	now := time.Now()
	for rep := 0; rep < 3; rep++ {
		for i, m := range members {
			for _, kit := range kits {
				rec := resultstore.Record{
					ID: fmt.Sprintf("p-%d-%d-%s", rep, i, kit.Name()), Workload: m.name, Kit: kit.Name(),
					Threads: threads, Scale: "test", Seed: m.seed, Reps: jobReps,
					Submitted: now, Started: now, Finished: now, Status: "ok",
					TimesNS: []int64{1e6, 1e6, 1e6, 1e6, 1e6}, MeanNS: 1e6, SyncOps: 1,
				}
				start := time.Now()
				if err := store.Append(rec); err != nil {
					store.Close()
					return err
				}
				appends = append(appends, ms(time.Since(start)))
			}
		}
	}
	b.metrics["journal_append_ms"] = median(appends)

	ix := store.Index()
	var lookups []float64
	for rep := 0; rep < 20; rep++ {
		for _, m := range members {
			for _, kit := range kits {
				k := resultstore.Key{Workload: m.name, Kit: kit.Name(), Threads: threads, Scale: "test"}
				start := time.Now()
				recs := ix.ByKey(k)
				lookups = append(lookups, float64(time.Since(start).Nanoseconds())/1e3)
				if len(recs) == 0 {
					b.fail("index has no records for %+v", k)
				}
			}
		}
	}
	b.metrics["index_bykey_us"] = median(lookups)
	return store.Close()
}

// bootstrapProbe times stats.BootstrapCI with /compare's defaults on each
// workload's pooled classic and lockfree samples.
func (b *bench) bootstrapProbe(timed map[string][]float64) {
	var xs []float64
	for _, key := range sortedKeys(timed) {
		wl, ok := strings.CutSuffix(key, ".classic")
		if !ok || len(timed[cellKey(wl, "lockfree")]) == 0 {
			continue
		}
		for rep := 0; rep < 5; rep++ {
			start := time.Now()
			ci, err := stats.BootstrapCI(timed[key], timed[cellKey(wl, "lockfree")], 0.95, 2000, 1)
			xs = append(xs, ms(time.Since(start)))
			if err != nil || !validCI(ci.Point, ci.Lo, ci.Hi) {
				b.fail("bootstrap %s: %v %v", wl, ci, err)
			}
		}
	}
	b.metrics["bootstrap_ms"] = median(xs)
}

// execProbe calls ExecuteSpec directly, outside the HTTP path, once per
// (workload, kit) cell of the test-scale spec mix.
func (b *bench) execProbe(env *serveEnv, members []member) {
	var xs []float64
	for i, m := range members {
		for _, kit := range kits {
			sp := server.Spec{
				Workload: m.name, Kit: kit.Name(), Threads: threads, Scale: "test",
				Seed: mix(b.seed, 3<<32+uint64(i)), Reps: jobReps, Warmup: jobWarmup,
			}
			start := time.Now()
			res := env.srv.ExecuteSpec(context.Background(), sp)
			xs = append(xs, ms(time.Since(start)))
			if res.Status != "ok" || len(res.TimesNS) != jobReps {
				b.fail("exec %s/%s: status %s: %s", m.name, kit.Name(), res.Status, res.Error)
				continue
			}
			b.ok()
		}
	}
	b.metrics["exec_ms"] = median(xs)
}
