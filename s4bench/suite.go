package main

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/stats"
	"repro/internal/sync4"
	"repro/internal/sync4/classic"
	"repro/internal/sync4/lockfree"
	"repro/internal/workloads/all"
)

// rosterEntry names one suite workload and the scale it runs at.
type rosterEntry struct {
	name  string
	scale core.Scale
}

// syncRoster holds the barrier-, counter- and reduction-dense codes, where
// the kit sets the timed region.
var syncRoster = []rosterEntry{
	{"ocean", core.ScaleDefault},
	{"ocean-contiguous", core.ScaleDefault},
	{"lu", core.ScaleDefault},
	{"lu-contiguous", core.ScaleDefault},
	{"cholesky", core.ScaleDefault},
	{"radiosity", core.ScaleDefault},
	{"water-nsquared", core.ScaleDefault},
	{"radix", core.ScaleDefault},
	{"fft", core.ScaleDefault},
}

// computeRoster holds the compute-dominated codes, where a kit change should
// move nothing. volrend runs small: its default rep plus verify costs
// seconds on a 2-vCPU host.
var computeRoster = []rosterEntry{
	{"barnes", core.ScaleDefault},
	{"fmm", core.ScaleDefault},
	{"raytrace", core.ScaleDefault},
	{"water-spatial", core.ScaleDefault},
	{"volrend", core.ScaleSmall},
}

// kits are the two synchronization kits every cell runs under.
var kits [2]sync4.Kit

func init() { kits = [2]sync4.Kit{classic.New(), lockfree.New()} }

// member is one roster workload resolved for a run: its Config.Seed is
// derived from --seed and its position.
type member struct {
	name  string
	bench core.Benchmark
	scale core.Scale
	seed  int64
}

func resolveRoster(roster []rosterEntry, seed int64) ([]member, error) {
	ms := make([]member, len(roster))
	for i, e := range roster {
		b, err := all.ByName(e.name)
		if err != nil {
			return nil, err
		}
		ms[i] = member{e.name, b, e.scale, mix(seed, uint64(i))}
	}
	return ms, nil
}

// cellKey names one (workload, kit) cell.
func cellKey(wl, kit string) string { return wl + "." + kit }

// suiteRun is what one phase of verified rounds measured.
type suiteRun struct {
	WallS  float64   `json:"wall_s"`
	Rounds []float64 `json:"round_s"` // per verified round
	Jobs   []float64 `json:"job_ms"`  // per cell rep: prepare, run and verify
	Reads  []float64 `json:"read_ms"` // per comparison readout
	// Timed holds every rep's Instance.Run time by cell.
	Timed map[string][]float64 `json:"timed_ms"`
	// SyncOps and Blocked hold the traced phase's census and blocked
	// time by cell.
	SyncOps map[string]int64     `json:"sync_ops,omitempty"`
	Blocked map[string][]float64 `json:"blocked_ms,omitempty"`
}

// runSuite measures verified rounds over the roster: every round prepares,
// runs and verifies every roster workload under both kits, round-robin over
// the roster, alternating which kit goes first in each cell.
func runSuite(b *bench, roster []rosterEntry) error {
	members, err := resolveRoster(roster, b.seed)
	if err != nil {
		return err
	}
	b.metrics["setup_s"] = suiteSetup(b, members)

	untraced := suiteRounds(b, members, nil, time.Now().Add(b.phaseLength()))
	b.detail["untraced"] = untraced
	if !b.traced {
		b.suiteEndToEnd(untraced)
		return nil
	}
	tracedRun := suiteRounds(b, members, b.spans, time.Now().Add(b.phaseLength()))
	b.detail["traced"] = tracedRun
	b.metrics["trace_overhead"] = traceOverhead(len(untraced.Jobs), untraced.WallS, len(tracedRun.Jobs), tracedRun.WallS)
	b.timedLayers(untraced.Timed)
	b.coreLayers(members, tracedRun.SyncOps)
	b.blockedLayers(tracedRun.Blocked)
	return b.probeLayers(members, untraced.Timed)
}

// suiteSetup prepares every roster workload under both kits — the suite's
// untimed input generation — five times, and returns the median pass in
// seconds. Each Prepare starts from a collected heap, outside the timing:
// left to the collector's pacing, the discarded instances pile up by a
// varying amount and set a peak resident set that differs from run to run.
func suiteSetup(b *bench, members []member) float64 {
	var passes []float64
	for pass := 0; pass < 5; pass++ {
		var total time.Duration
		for _, m := range members {
			for _, kit := range kits {
				runtime.GC()
				start := time.Now()
				_, err := m.bench.Prepare(core.Config{Threads: threads, Kit: kit, Scale: m.scale, Seed: m.seed})
				total += time.Since(start)
				if err != nil {
					b.fail("setup: prepare %s/%s: %v", m.name, kit.Name(), err)
				}
			}
		}
		passes = append(passes, total.Seconds())
	}
	return median(passes)
}

// suiteRounds runs verified rounds until deadline (at least one). With a
// tracer the kit is instrumented with timing and each call into the suite
// core gets a span.
func suiteRounds(b *bench, members []member, tr *tracer, deadline time.Time) *suiteRun {
	r := &suiteRun{
		Timed: make(map[string][]float64), SyncOps: make(map[string]int64),
		Blocked: make(map[string][]float64),
	}
	start := time.Now()
	for round := 0; round == 0 || time.Now().Before(deadline); round++ {
		roundID := tr.id()
		roundStart := time.Now()
		var done []member
		for i, m := range members {
			first := (round + i) % 2
			for k := 0; k < 2; k++ {
				kit := kits[(first+k)%2]
				jobStart := time.Now()
				if r.cell(b, m, kit, tr, roundID) {
					done = append(done, m)
				}
				r.Jobs = append(r.Jobs, ms(time.Since(jobStart)))
			}
		}
		roundEnd := time.Now()
		r.Rounds = append(r.Rounds, roundEnd.Sub(roundStart).Seconds())
		tr.add(roundID, 0, "round", fmt.Sprint(round), roundStart, roundEnd)
		// The round's results are read back as the paper reports them:
		// one classic-vs-lockfree comparison per finished cell rep. The
		// round's garbage is collected first, so no collection cycle
		// started by the round runs beside the reads.
		runtime.GC()
		for _, m := range done {
			r.read(b, m)
		}
	}
	r.WallS = time.Since(start).Seconds()
	return r
}

// cell prepares, runs and verifies one roster workload under one kit and
// reports whether every step succeeded.
func (r *suiteRun) cell(b *bench, m member, kit sync4.Kit, tr *tracer, parent int64) bool {
	key := cellKey(m.name, kit.Name())
	var census sync4.Counters
	runKit := kit
	if tr != nil {
		runKit = sync4.Instrument(kit, &census, true)
	}
	jobID := tr.id()
	t0 := time.Now()
	inst, err := m.bench.Prepare(core.Config{Threads: threads, Kit: runKit, Scale: m.scale, Seed: m.seed})
	t1 := time.Now()
	tr.add(tr.id(), jobID, "prepare", m.name, t0, t1)
	if err != nil {
		b.fail("%s: prepare: %v", key, err)
		return false
	}
	// As harness.Options.QuiesceGC: collect before the timed region and
	// keep the collector out of it.
	runtime.GC()
	gcPercent := debug.SetGCPercent(-1)
	runStart := time.Now()
	err = inst.Run()
	t2 := time.Now()
	debug.SetGCPercent(gcPercent)
	tr.add(tr.id(), jobID, "run", key, runStart, t2)
	if err != nil {
		b.fail("%s: run: %v", key, err)
		return false
	}
	err = inst.Verify()
	t3 := time.Now()
	tr.add(tr.id(), jobID, "verify", m.name, t2, t3)
	tr.add(jobID, parent, "job", key, t0, t3)
	if err != nil {
		b.fail("%s: verify: %v", key, err)
		return false
	}
	b.ok()
	r.Timed[key] = append(r.Timed[key], ms(t2.Sub(runStart)))
	if tr != nil {
		snap := census.Snapshot()
		r.Blocked[key] = append(r.Blocked[key], float64(snap.BlockedNanos())/1e6)
		if prev, seen := r.SyncOps[key]; seen && prev != snap.Total() {
			b.fail("%s: sync census changed between reps of one input: %d then %d", key, prev, snap.Total())
		}
		r.SyncOps[key] = snap.Total()
	}
	return true
}

// readSample is how many reps per kit a suite read compares: the
// workload's latest ones, taken again in turn while fewer have run, so a
// read's cost depends neither on how long the run is nor on how many
// rounds fit into it.
const readSample = 16

// read computes the classic-vs-lockfree comparison of one workload over
// its latest reps, with /compare's defaults, and checks it.
func (r *suiteRun) read(b *bench, m member) {
	base, target := r.Timed[cellKey(m.name, "classic")], r.Timed[cellKey(m.name, "lockfree")]
	if len(base) == 0 || len(target) == 0 {
		return
	}
	base, target = latest(base), latest(target)
	start := time.Now()
	ci, err := stats.BootstrapCI(base, target, 0.95, 2000, 1)
	r.Reads = append(r.Reads, ms(time.Since(start)))
	switch {
	case err != nil:
		b.fail("compare %s: %v", m.name, err)
	case !validCI(ci.Point, ci.Lo, ci.Hi):
		b.fail("compare %s: malformed interval %g [%g, %g]", m.name, ci.Point, ci.Lo, ci.Hi)
	default:
		b.ok()
	}
}

// latest returns readSample values of xs, newest first, cycling through xs
// when it holds fewer.
func latest(xs []float64) []float64 {
	out := make([]float64, readSample)
	for i := range out {
		out[i] = xs[len(xs)-1-i%len(xs)]
	}
	return out
}

// suiteEndToEnd derives the end-to-end metrics of an untraced phase.
func (b *bench) suiteEndToEnd(r *suiteRun) {
	b.kitSums(r.Timed, 1e-3)
	b.metrics["round_s"] = median(r.Rounds)
	b.metrics["jobs_per_s"] = float64(len(r.Jobs)) / r.WallS
	b.metrics["job_p50_ms"] = median(r.Jobs)
	b.metrics["job_p90_ms"] = quantile(r.Jobs, 0.9)
	b.metrics["read_p50_ms"] = median(r.Reads)
	b.metrics["read_p90_ms"] = quantile(r.Reads, 0.9)
	b.detail["samples"] = map[string]int{"rounds": len(r.Rounds), "jobs": len(r.Jobs), "reads": len(r.Reads)}
}

// blockedLayers sets the per-kit blocked time: the sum over the roster of
// each workload's median blocked time per rep.
func (b *bench) blockedLayers(blocked map[string][]float64) {
	for _, kit := range kits {
		b.metrics["blocked_ms."+kit.Name()] = kitMedianSum(blocked, kit.Name())
	}
}

// kitSums sets lockfree_timed_s and classic_timed_s: per kit, the sum over
// the roster of each workload's median timed region, scaled from ms.
func (b *bench) kitSums(timed map[string][]float64, scale float64) {
	for _, kit := range kits {
		b.metrics[kit.Name()+"_timed_s"] = kitMedianSum(timed, kit.Name()) * scale
	}
}

// kitMedianSum sums the median of every cell of one kit.
func kitMedianSum(cells map[string][]float64, kit string) float64 {
	groups := make(map[string][]float64)
	for key, xs := range cells {
		if strings.HasSuffix(key, "."+kit) {
			groups[key] = xs
		}
	}
	return medianSum(groups)
}
