// Package faulty is the suite's fault-injection layer: a sync4.Kit
// decorator (in the mold of sync4.Trace and sync4.Instrument) that
// perturbs the schedule around every synchronization operation according
// to a seeded, deterministic plan. The lock-free constructs' claim — that
// CAS retry loops, atomic barriers and the MPMC ring preserve workload
// semantics — is only credible if it survives hostile schedules, not just
// the ones the Go scheduler happens to produce; this package manufactures
// the hostile schedules on demand and makes every one of them reproducible
// from a single seed.
//
// Fault classes:
//
//   - delay: scheduler yields and busy spins at operation boundaries,
//     widening CAS retry windows and reshuffling which operations collide;
//   - straggler: a longer delay before a barrier arrival, so one worker
//     reaches the episode long after the rest are spinning on the phase;
//   - spurious-wake: a flag waiter wakes, observes the flag unset, and
//     re-blocks — the classic condition-variable hazard replayed against
//     the kit's one-shot flags;
//   - flap: a TryPut/TryGet/TryPop spuriously reports full or empty for a
//     bounded burst, forcing every caller's retry loop to take extra laps.
//
// Every decision is a pure function of (seed, site, per-site counter),
// where a site identifies one construct and operation. Decisions therefore
// do not depend on cross-thread interleaving: the same seed injects the
// same fault on the n-th Put to a given queue in every run, which is what
// makes `-chaos-seed` sufficient to reproduce a failure. The injector
// counts every injection per class and can record the first decisions
// verbatim (Plan.Record) for post-mortem diagnosis.
//
// Contract preservation: delay, straggler and spurious-wake faults are
// semantics-preserving — wrapped constructs still satisfy the full
// sync4.Kit contract, so whole workloads run unmodified under them (the
// `make chaos` gate asserts their results are identical to clean runs).
// Flap faults weaken the Try* contract to "may transiently fail, at most
// FlapBurst times in a row per site"; they are exercised by the
// construct-level kittest fault schedules, whose callers retry, and are
// left out of whole-workload plans.
package faulty

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/splitmix"
	"repro/internal/sync4"
)

// Fault enumerates the injected fault classes.
type Fault uint8

// Fault classes, in injection-report order.
const (
	FaultDelay Fault = iota
	FaultStraggler
	FaultSpuriousWake
	FaultFlap
	numFaults
)

// String implements fmt.Stringer.
func (f Fault) String() string {
	switch f {
	case FaultDelay:
		return "delay"
	case FaultStraggler:
		return "straggler"
	case FaultSpuriousWake:
		return "spurious-wake"
	case FaultFlap:
		return "flap"
	default:
		return "fault-unknown"
	}
}

// Plan configures one injection schedule. Probabilities are in [0, 1];
// a zero Plan injects nothing.
type Plan struct {
	// Seed selects the deterministic schedule. Two injectors with equal
	// plans make identical per-site decisions.
	Seed int64
	// Delay is the probability of a scheduling perturbation (yields plus
	// a short busy spin) at any operation boundary.
	Delay float64
	// DelaySpins is the busy-spin length of one delay. Defaults to 64.
	DelaySpins int
	// SleepEvery turns every n-th injected delay into a real 50µs sleep,
	// long enough to force goroutine rescheduling. 0 never sleeps.
	SleepEvery int
	// Straggler is the probability of an extended delay before a barrier
	// arrival (one straggling worker per episode is the worst case for a
	// spin barrier).
	Straggler float64
	// SpuriousWake is the probability that a flag Wait first wakes,
	// re-checks the flag, and blocks again before the real wait.
	SpuriousWake float64
	// Flap is the probability that a TryPut/TryGet/TryPop spuriously
	// fails. Consecutive spurious failures per site are capped at
	// FlapBurst, so bounded retry always makes progress.
	Flap float64
	// FlapBurst caps consecutive spurious Try* failures per site.
	// Defaults to 3.
	FlapBurst int
	// Record keeps the first Record injection decisions for post-mortem
	// reproduction. 0 records nothing.
	Record int
}

// Mild returns a semantics-preserving plan: delays, stragglers and
// spurious wakes, no flapping. Whole workloads run unmodified under it.
func Mild(seed int64) Plan {
	return Plan{Seed: seed, Delay: 0.02, SleepEvery: 16, Straggler: 0.05, SpuriousWake: 0.1}
}

// Aggressive returns Mild with higher rates plus Try* flapping; only
// retry-tolerant callers (the kittest fault schedules) should run under
// it.
func Aggressive(seed int64) Plan {
	return Plan{Seed: seed, Delay: 0.1, SleepEvery: 32, Straggler: 0.25,
		SpuriousWake: 0.5, Flap: 0.3, FlapBurst: 3}
}

func (p Plan) delaySpins() int {
	if p.DelaySpins <= 0 {
		return 64
	}
	return p.DelaySpins
}

func (p Plan) flapBurst() int {
	if p.FlapBurst <= 0 {
		return 3
	}
	return p.FlapBurst
}

// Decision is one recorded injection: the Seq-th operation on Site drew
// fault class Fault.
type Decision struct {
	Site  uint64
	Op    string
	Seq   int64
	Fault Fault
}

// Report is a snapshot of an injector's activity.
type Report struct {
	// Ops is the number of operations that passed through the injector.
	Ops int64
	// Injected counts injections per fault class, indexed by Fault.
	Injected [numFaults]int64
	// Decisions holds the first Plan.Record recorded decisions.
	Decisions []Decision
}

// Total returns the number of injected faults across all classes.
func (r Report) Total() int64 {
	var n int64
	for _, v := range r.Injected {
		n += v
	}
	return n
}

// Injector owns one deterministic fault schedule. Create it with New,
// wrap kits with Wrap, and read activity with Report. An injector may
// wrap any number of kits; sites are assigned per constructed object.
type Injector struct {
	plan     Plan
	ops      atomic.Int64
	injected [numFaults]atomic.Int64
	//lint:ignore sync4vet-atomic-layout the injector is a test harness, never a measured hot path; its counters stay compact on purpose
	nextSite atomic.Uint64

	recMu sync.Mutex
	rec   []Decision
}

// New returns an injector executing plan.
func New(plan Plan) *Injector { return &Injector{plan: plan} }

// Plan returns the injector's schedule configuration.
func (inj *Injector) Plan() Plan { return inj.plan }

// Report snapshots the injection counts and recorded decisions.
func (inj *Injector) Report() Report {
	r := Report{Ops: inj.ops.Load()}
	for i := range r.Injected {
		r.Injected[i] = inj.injected[i].Load()
	}
	inj.recMu.Lock()
	r.Decisions = append(r.Decisions, inj.rec...)
	inj.recMu.Unlock()
	return r
}

// roll returns the deterministic uniform draw in [0, 1) for the n-th
// operation on site.
func (inj *Injector) roll(site uint64, n int64) float64 {
	h := splitmix.Mix(splitmix.Mix(uint64(inj.plan.Seed)^site) ^ uint64(n))
	return float64(h>>11) / (1 << 53)
}

// fire decides, counts and optionally records one injection.
func (inj *Injector) fire(f Fault, prob float64, site uint64, n int64, op string) bool {
	if prob <= 0 {
		return false
	}
	// Offset the draw space per fault class so a site that consults two
	// classes (e.g. delay and straggler) gets independent streams.
	if inj.roll(site^(uint64(f)<<56), n) >= prob {
		return false
	}
	inj.injected[f].Add(1)
	if inj.plan.Record > 0 {
		inj.recMu.Lock()
		if len(inj.rec) < inj.plan.Record {
			inj.rec = append(inj.rec, Decision{Site: site, Op: op, Seq: n, Fault: f})
		}
		inj.recMu.Unlock()
	}
	return true
}

// dawdle performs one injected delay: busy work punctuated by scheduler
// yields, escalated to a real sleep every SleepEvery-th injection.
func (inj *Injector) dawdle(scale int) {
	n := inj.injected[FaultDelay].Load() + inj.injected[FaultStraggler].Load()
	if inj.plan.SleepEvery > 0 && n%int64(inj.plan.SleepEvery) == 0 {
		time.Sleep(50 * time.Microsecond)
		return
	}
	spins := inj.plan.delaySpins() * scale
	for i := 0; i < spins; i++ {
		if i%16 == 0 {
			runtime.Gosched()
		}
	}
}

// perturb injects a plain delay at an operation boundary.
func (inj *Injector) perturb(site uint64, n int64, op string) {
	inj.ops.Add(1)
	if inj.fire(FaultDelay, inj.plan.Delay, site, n, op) {
		inj.dawdle(1)
	}
}

// flap reports whether a Try* operation should spuriously fail. streak
// tracks consecutive spurious failures for the site so a bounded retry
// always reaches the real construct.
func (inj *Injector) flap(site uint64, n int64, op string, streak *atomic.Int32) bool {
	if inj.plan.Flap <= 0 {
		return false
	}
	if int(streak.Load()) >= inj.plan.flapBurst() {
		streak.Store(0)
		return false
	}
	if !inj.fire(FaultFlap, inj.plan.Flap, site, n, op) {
		streak.Store(0)
		return false
	}
	streak.Add(1)
	return true
}

// site allocates a fresh site id for a constructed object.
func (inj *Injector) site() uint64 { return inj.nextSite.Add(1) << 8 }

// Per-site operation sub-keys: a construct's site id is its base, and the
// low byte distinguishes the operations consulted on it.
const (
	opWait uint64 = iota + 1
	opSet
	opLock
	opUnlock
	opRMW
	opPut
	opTryPut
	opTryGet
	opPush
	opTryPop
)

// Wrap decorates kit so every synchronization operation consults the
// injector's schedule. The wrapped kit preserves the sync4.Kit contract
// except where the plan enables flapping (see the package comment).
func (inj *Injector) Wrap(kit sync4.Kit) sync4.Kit {
	if inj == nil {
		return kit
	}
	return &faultyKit{base: kit, inj: inj}
}

type faultyKit struct {
	base sync4.Kit
	inj  *Injector
}

func (k *faultyKit) Name() string { return k.base.Name() + "+faulty" }

func (k *faultyKit) NewBarrier(n int) sync4.Barrier {
	return &fBarrier{b: k.base.NewBarrier(n), inj: k.inj, site: k.inj.site()}
}

func (k *faultyKit) NewLock() sync4.Locker {
	return &fLock{l: k.base.NewLock(), inj: k.inj, site: k.inj.site()}
}

func (k *faultyKit) NewCounter() sync4.Counter {
	return &fCounter{c: k.base.NewCounter(), inj: k.inj, site: k.inj.site()}
}

func (k *faultyKit) NewAccumulator() sync4.Accumulator {
	return &fAccum{a: k.base.NewAccumulator(), inj: k.inj, site: k.inj.site()}
}

func (k *faultyKit) NewMinMax() sync4.MinMax {
	return &fMinMax{m: k.base.NewMinMax(), inj: k.inj, site: k.inj.site()}
}

func (k *faultyKit) NewFlag() sync4.Flag {
	return &fFlag{f: k.base.NewFlag(), inj: k.inj, site: k.inj.site()}
}

func (k *faultyKit) NewQueue(capacity int) sync4.Queue {
	return &fQueue{q: k.base.NewQueue(capacity), inj: k.inj, site: k.inj.site()}
}

func (k *faultyKit) NewStack() sync4.Stack {
	return &fStack{s: k.base.NewStack(), inj: k.inj, site: k.inj.site()}
}

type fBarrier struct {
	b    sync4.Barrier
	inj  *Injector
	site uint64
	n    atomic.Int64
}

func (b *fBarrier) Wait() {
	n := b.n.Add(1)
	// A straggler dawdles long enough that the rest of the group is
	// already spinning on the episode when it finally arrives.
	if b.inj.fire(FaultStraggler, b.inj.plan.Straggler, b.site|opWait, n, "barrier-wait") {
		b.inj.dawdle(8)
	}
	b.inj.perturb(b.site|opWait, n, "barrier-wait")
	b.b.Wait()
}

type fLock struct {
	l    sync4.Locker
	inj  *Injector
	site uint64
	n    atomic.Int64
}

func (l *fLock) Lock() {
	l.inj.perturb(l.site|opLock, l.n.Add(1), "lock")
	l.l.Lock()
}

// Unlock perturbs before releasing: an injected delay here extends the
// critical section, amplifying contention on the lock.
func (l *fLock) Unlock() {
	l.inj.perturb(l.site|opUnlock, l.n.Add(1), "unlock")
	l.l.Unlock()
}

type fCounter struct {
	c    sync4.Counter
	inj  *Injector
	site uint64
	n    atomic.Int64
}

func (c *fCounter) Add(delta int64) int64 {
	c.inj.perturb(c.site|opRMW, c.n.Add(1), "counter-add")
	return c.c.Add(delta)
}

func (c *fCounter) Inc() int64 {
	c.inj.perturb(c.site|opRMW, c.n.Add(1), "counter-inc")
	return c.c.Inc()
}

func (c *fCounter) Load() int64   { return c.c.Load() }
func (c *fCounter) Store(v int64) { c.c.Store(v) }

type fAccum struct {
	a    sync4.Accumulator
	inj  *Injector
	site uint64
	n    atomic.Int64
}

func (a *fAccum) Add(v float64) {
	a.inj.perturb(a.site|opRMW, a.n.Add(1), "accum-add")
	a.a.Add(v)
}

func (a *fAccum) Load() float64   { return a.a.Load() }
func (a *fAccum) Store(v float64) { a.a.Store(v) }

type fMinMax struct {
	m    sync4.MinMax
	inj  *Injector
	site uint64
	n    atomic.Int64
}

func (m *fMinMax) Update(v float64) {
	m.inj.perturb(m.site|opRMW, m.n.Add(1), "minmax-update")
	m.m.Update(v)
}

func (m *fMinMax) Min() float64 { return m.m.Min() }
func (m *fMinMax) Max() float64 { return m.m.Max() }
func (m *fMinMax) Reset()       { m.m.Reset() }

type fFlag struct {
	f    sync4.Flag
	inj  *Injector
	site uint64
	n    atomic.Int64
}

func (f *fFlag) Set() {
	f.inj.perturb(f.site|opSet, f.n.Add(1), "flag-set")
	f.f.Set()
}

// Wait injects the spurious-wakeup schedule: the waiter wakes, observes
// the flag (usually still unset), yields, and re-blocks. The return
// condition is still delegated to the base flag, so Wait never returns
// before Set.
func (f *fFlag) Wait() {
	n := f.n.Add(1)
	if f.inj.fire(FaultSpuriousWake, f.inj.plan.SpuriousWake, f.site|opWait, n, "flag-wait") {
		for i := 0; i < 4 && !f.f.IsSet(); i++ {
			runtime.Gosched()
		}
	}
	f.inj.perturb(f.site|opWait, n, "flag-wait")
	f.f.Wait()
}

func (f *fFlag) IsSet() bool { return f.f.IsSet() }

type fQueue struct {
	q         sync4.Queue
	inj       *Injector
	site      uint64
	n         atomic.Int64
	putStreak atomic.Int32
	getStreak atomic.Int32
}

func (q *fQueue) Put(v int64) {
	q.inj.perturb(q.site|opPut, q.n.Add(1), "queue-put")
	q.q.Put(v)
}

func (q *fQueue) TryPut(v int64) bool {
	n := q.n.Add(1)
	if q.inj.flap(q.site|opTryPut, n, "queue-tryput", &q.putStreak) {
		return false // spurious full
	}
	q.inj.perturb(q.site|opTryPut, n, "queue-tryput")
	return q.q.TryPut(v)
}

func (q *fQueue) TryGet() (int64, bool) {
	n := q.n.Add(1)
	if q.inj.flap(q.site|opTryGet, n, "queue-tryget", &q.getStreak) {
		return 0, false // spurious empty
	}
	q.inj.perturb(q.site|opTryGet, n, "queue-tryget")
	return q.q.TryGet()
}

func (q *fQueue) Len() int { return q.q.Len() }

type fStack struct {
	s         sync4.Stack
	inj       *Injector
	site      uint64
	n         atomic.Int64
	popStreak atomic.Int32
}

func (s *fStack) Push(v int64) {
	s.inj.perturb(s.site|opPush, s.n.Add(1), "stack-push")
	s.s.Push(v)
}

func (s *fStack) TryPop() (int64, bool) {
	n := s.n.Add(1)
	if s.inj.flap(s.site|opTryPop, n, "stack-trypop", &s.popStreak) {
		return 0, false // spurious empty
	}
	s.inj.perturb(s.site|opTryPop, n, "stack-trypop")
	return s.s.TryPop()
}

func (s *fStack) Len() int { return s.s.Len() }
