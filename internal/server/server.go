// Package server implements splash4d, the suite's benchmark-execution
// daemon: a long-running HTTP service that accepts measurement jobs, runs
// them through internal/harness on a bounded worker pool, persists every
// result to an append-only journal (internal/resultstore) and answers
// statistical classic-vs-lockfree comparisons (stats.BootstrapCI).
//
// The service dogfoods the suite it serves: the admission queue is the
// lockfree kit's bounded MPMC ring (the same Vyukov queue the workloads
// use), and the job gauges are lockfree fetch-and-add counters. Lifecycle
// plumbing that has no kit equivalent — the HTTP stack, SSE fan-out,
// context cancellation — uses the standard library, which splash4-vet
// permits outside workload packages.
//
// Pipeline shape:
//
//	POST /runs ─▶ admission (singleflight dedup, lock-free ring, 429 when
//	full) ─▶ worker pool (GOMAXPROCS workers, one wake token per accepted
//	job) ─▶ harness.RunContext (traced, instrumented, cancellable) ─▶
//	resultstore journal + latency histograms + SSE progress events.
//
// Shutdown is drain-first: admission starts refusing with 503, every
// accepted job runs to completion, the journal is flushed, and only then do
// the workers exit. See docs/SERVICE.md for the API reference.
package server

import (
	"context"
	"fmt"
	"math/rand/v2"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/resultstore"
	"repro/internal/stats"
	"repro/internal/sync4"
	"repro/internal/sync4/lockfree"
	"repro/internal/telemetry"
	"repro/internal/workloads/all"
)

// Config sizes the daemon.
type Config struct {
	// Store persists results; required.
	Store *resultstore.Store
	// NodeID names this node in a cluster. Empty (the default) keeps the
	// single-node behavior everywhere it shows: job IDs stay "r-<seq>",
	// journal records and access-log lines carry no node fields. Non-empty,
	// job IDs become "r-<node>-<seq>" so any cluster node can route a
	// GET /runs/{id} to the owner, and records name their origin.
	NodeID string
	// QueueCapacity bounds the admission ring. Submissions beyond it get
	// 429. Defaults to 64. The lock-free ring rounds it up to a power of
	// two, and the server honors the rounded capacity.
	QueueCapacity int
	// Workers is the execution pool size. Defaults to GOMAXPROCS.
	Workers int
	// MaxReps caps a single job's measured repetitions. Defaults to 32.
	MaxReps int
	// MaxThreads caps a single job's worker threads. Defaults to
	// 4*GOMAXPROCS.
	MaxThreads int
	// TraceCapacity is the per-lane event-buffer capacity of each job's
	// trace recorder. Defaults to 1<<16.
	TraceCapacity int
	// JobTimeout bounds one job's total execution (all repetitions,
	// including warmup). A job that exceeds it fails with a timeout error
	// instead of occupying its worker forever. Defaults to 5 minutes.
	JobTimeout time.Duration
	// RepTimeout arms the harness watchdog for each repetition: a rep that
	// exceeds it is abandoned and the job fails with harness.ErrStalled
	// plus a structured stall diagnosis. Defaults to JobTimeout.
	RepTimeout time.Duration
	// Resolver maps a workload name to its benchmark. Defaults to
	// all.ByName; tests inject controllable benchmarks here.
	Resolver func(name string) (core.Benchmark, error)
	// AccessLog, when non-nil, receives one structured JSONL line per
	// completed HTTP exchange and per terminal job (with the job's full
	// lifecycle span chain). A nil log disables access logging; the
	// pipeline's span recording stays on either way.
	AccessLog *telemetry.AccessLog
}

func (c *Config) fill() error {
	if c.Store == nil {
		return fmt.Errorf("server: Config.Store is required")
	}
	if c.QueueCapacity <= 0 {
		c.QueueCapacity = 64
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.MaxReps <= 0 {
		c.MaxReps = 32
	}
	if c.MaxThreads <= 0 {
		c.MaxThreads = 4 * runtime.GOMAXPROCS(0)
	}
	if c.TraceCapacity <= 0 {
		c.TraceCapacity = 1 << 16
	}
	if c.JobTimeout <= 0 {
		c.JobTimeout = 5 * time.Minute
	}
	if c.RepTimeout <= 0 {
		c.RepTimeout = c.JobTimeout
	}
	if c.Resolver == nil {
		c.Resolver = all.ByName
	}
	return nil
}

// histKey identifies one latency histogram series.
type histKey struct {
	workload, kit string
}

// Server is the daemon. Create it with New; it must not be copied.
type Server struct {
	cfg   Config
	store *resultstore.Store

	// queue is the admission ring: the lockfree kit's bounded MPMC queue
	// carrying job sequence numbers. Its TryPut failing is the 429 signal.
	queue    sync4.Queue
	queueCap int
	// wake nudges sleeping workers. A token is offered (non-blocking)
	// after each successful TryPut, and a woken worker drains the ring
	// until TryGet misses, so a dropped token — only possible while the
	// channel is already full of pending wake-ups — never strands a job:
	// whichever worker consumes a pending token runs after the enqueue
	// completed and will see it.
	wake chan struct{}

	mu     sync.Mutex
	seq    int64
	jobs   map[string]*Job // by public ID
	bySeq  map[int64]*Job  // by ring payload
	active map[string]*Job // singleflight: queued/running jobs by spec key
	// stolen tracks queued jobs a cluster peer has taken (steal.go): the
	// job left the admission ring but its terminal state is owed by the
	// thief's /peer/complete callback — or by reclaim, if that never comes.
	// Map membership under mu is the arbiter of the complete-vs-reclaim
	// race: whoever removes the entry owns the job's remaining lifecycle.
	stolen map[string]*stolenEntry // by public ID

	// Job-flow gauges, on the suite's own lock-free counters. Rejections
	// are split by cause: ring full (429), degraded journal (503),
	// draining (503).
	accepted         sync4.Counter
	completed        sync4.Counter
	failed           sync4.Counter
	rejected         sync4.Counter // ring full
	rejectedDegraded sync4.Counter
	rejectedDraining sync4.Counter
	deduped          sync4.Counter
	inflight         sync4.Counter
	// donated counts queued jobs handed to stealing peers; reclaimed counts
	// the ones taken back after the thief went quiet.
	donated   sync4.Counter
	reclaimed sync4.Counter

	histMu sync.Mutex
	hists  map[histKey]*stats.Histogram

	// phases aggregates every finished job's lifecycle span durations
	// into per-phase histograms (splash4d_phase_duration_seconds).
	phases *telemetry.Registry
	// accessLog is the optional structured JSONL request/job log; nil
	// disables it (telemetry.AccessLog methods are nil-safe).
	accessLog *telemetry.AccessLog

	// Request-ID minting: a per-process random prefix plus a sequence.
	reqPrefix string
	reqSeq    atomic.Int64

	// Per-status-code HTTP request counters for /metrics.
	httpMu    sync.Mutex
	httpCodes map[int]int64

	// appendRetries counts journal append attempts that failed and were
	// retried (or gave up); it backs the splash4d_append_retries_total
	// metric.
	appendRetries sync4.Counter

	start    time.Time
	draining atomic.Bool
	// degraded flips on when the result journal's write path fails even
	// after bounded retries. While set, the server keeps serving reads
	// (status, events, compare, metrics) but refuses new submissions with
	// 503 — an accepted job whose result cannot be journaled would violate
	// the acknowledged-means-durable contract. It clears when a
	// store.Probe or a later append succeeds.
	degraded atomic.Bool
	// degClock accounts cumulative time spent degraded, for the
	// splash4d_degraded_seconds_total series. The flag above stays the
	// lock-free fast-path check; transitions go through setDegraded so
	// the clock and the flag move together.
	degMu    sync.Mutex
	degSince time.Time     // non-zero while degraded
	degTotal time.Duration // closed degraded windows

	jobsWG    sync.WaitGroup // accepted jobs not yet terminal
	workersWG sync.WaitGroup
	stop      chan struct{} // closed after drain to end the workers
	stopOnce  sync.Once

	jobCtx     context.Context // canceled to abort jobs between repetitions
	cancelJobs context.CancelFunc

	// hooks, when set, extend reads (compare pooling, job listings,
	// metrics) with cluster-replicated data. See cluster.go.
	hooks atomic.Pointer[ClusterHooks]
}

// New builds the server and starts its worker pool.
func New(cfg Config) (*Server, error) {
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	kit := lockfree.New()
	q := kit.NewQueue(cfg.QueueCapacity)
	// The ring rounds capacity up to a power of two with a floor of two
	// slots (a one-slot Vyukov ring cannot detect full); mirror that so
	// the advertised bound and the 429 threshold agree with reality.
	queueCap := 2
	for queueCap < cfg.QueueCapacity {
		queueCap <<= 1
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		cfg:              cfg,
		store:            cfg.Store,
		queue:            q,
		queueCap:         queueCap,
		wake:             make(chan struct{}, queueCap),
		jobs:             make(map[string]*Job),
		bySeq:            make(map[int64]*Job),
		active:           make(map[string]*Job),
		stolen:           make(map[string]*stolenEntry),
		accepted:         kit.NewCounter(),
		completed:        kit.NewCounter(),
		failed:           kit.NewCounter(),
		rejected:         kit.NewCounter(),
		rejectedDegraded: kit.NewCounter(),
		rejectedDraining: kit.NewCounter(),
		deduped:          kit.NewCounter(),
		inflight:         kit.NewCounter(),
		donated:          kit.NewCounter(),
		reclaimed:        kit.NewCounter(),
		appendRetries:    kit.NewCounter(),
		hists:            make(map[histKey]*stats.Histogram),
		phases:           telemetry.NewRegistry(),
		accessLog:        cfg.AccessLog,
		reqPrefix:        fmt.Sprintf("%08x", rand.Uint32()),
		httpCodes:        make(map[int]int64),
		start:            time.Now(),
		stop:             make(chan struct{}),
		jobCtx:           ctx,
		cancelJobs:       cancel,
	}
	// A reopened journal's job IDs stay taken: numbering resumes past the
	// highest sequence it holds, so a restarted node never re-mints an ID
	// its peers or clients already know.
	prefix := strings.TrimSuffix(s.jobID(0), "0")
	for _, rec := range cfg.Store.All() {
		if rest, ok := strings.CutPrefix(rec.ID, prefix); ok {
			if n, err := strconv.ParseInt(rest, 10, 64); err == nil && n > s.seq {
				s.seq = n
			}
		}
	}
	s.workersWG.Add(cfg.Workers)
	for i := 0; i < cfg.Workers; i++ {
		go s.worker()
	}
	return s, nil
}

// Draining reports whether the server has stopped admitting jobs.
func (s *Server) Draining() bool { return s.draining.Load() }

// Degraded reports whether the journal write path is failing and the
// server is serving reads only.
func (s *Server) Degraded() bool { return s.degraded.Load() }

// probeRecovery re-checks a degraded journal. It returns true when the
// write path works again (clearing degraded mode) — called from the
// admission path and the readiness probe so recovery needs no operator
// action beyond fixing the disk.
//
//sync4:req SYNC4-SERVE-008 v1 MUST A result-journal write-path fault degrades the daemon to read-only (writes 503, reads served) and degraded mode clears itself on the next successful probe, with no restart.
func (s *Server) probeRecovery() bool {
	if !s.degraded.Load() {
		return true
	}
	if err := s.store.Probe(); err != nil {
		return false
	}
	s.setDegraded(false)
	return true
}

// setDegraded flips degraded mode and keeps the degraded-duration clock in
// step: entering opens a window, leaving closes it into the running total.
// Idempotent under concurrent callers; the clock mutex serializes the
// flag-and-clock update.
func (s *Server) setDegraded(on bool) {
	s.degMu.Lock()
	defer s.degMu.Unlock()
	was := s.degraded.Load()
	s.degraded.Store(on)
	switch {
	case on && !was:
		s.degSince = time.Now()
	case !on && was:
		s.degTotal += time.Since(s.degSince)
		s.degSince = time.Time{}
	}
}

// degradedTotal returns cumulative time spent degraded, including the
// currently open window.
func (s *Server) degradedTotal() time.Duration {
	s.degMu.Lock()
	defer s.degMu.Unlock()
	total := s.degTotal
	if !s.degSince.IsZero() {
		total += time.Since(s.degSince)
	}
	return total
}

// QueueDepth returns a point-in-time estimate of queued (not yet running)
// jobs.
func (s *Server) QueueDepth() int { return s.queue.Len() }

// Drain performs the SIGTERM shutdown sequence: stop admitting (new
// submissions get 503), let every accepted job finish, flush the journal,
// then stop the workers. If ctx expires first, in-flight jobs are canceled
// at their next repetition boundary and queued jobs abort before starting;
// each still reaches a terminal state and a journal line before Drain
// returns. Drain is idempotent; concurrent calls all block until the
// pipeline is quiet.
//
//sync4:req SYNC4-SERVE-009 v1 MUST Graceful drain stops admission, lets every accepted job finish, and flushes the journal before stopping the workers.
//sync4:req SYNC4-SERVE-010 v1 MUST A forced drain (deadline expired) cancels in-flight jobs at a repetition boundary, and every accepted job still reaches a terminal state and a journal line before Drain returns.
func (s *Server) Drain(ctx context.Context) error {
	s.draining.Store(true)
	done := make(chan struct{})
	go func() {
		s.jobsWG.Wait()
		close(done)
	}()
	var forced error
	select {
	case <-done:
	case <-ctx.Done():
		forced = ctx.Err()
		s.cancelJobs()
		// Stolen jobs are executing on a peer, out of reach of jobCtx; a
		// forced drain fails them locally so every accepted job still
		// reaches a terminal state and a journal line before Drain returns.
		s.failStolen(fmt.Errorf("server: drain deadline passed while job was stolen by a peer: %w", forced))
		// Cancellation reaches every job at its next repetition boundary
		// (or before it starts), so this second wait is bounded by one
		// repetition of the slowest in-flight workload.
		<-done
	}
	s.stopOnce.Do(func() { close(s.stop) })
	s.workersWG.Wait()
	if err := s.store.Flush(); err != nil {
		return err
	}
	if forced != nil {
		return fmt.Errorf("server: drain forced by deadline, in-flight jobs canceled: %w", forced)
	}
	return nil
}

// Close force-stops the server: cancel everything, then drain. For tests
// and error paths; production shutdown should call Drain with a deadline.
func (s *Server) Close() error {
	s.cancelJobs()
	return s.Drain(context.Background())
}

// Handler returns the daemon's HTTP API, wrapped with request-ID
// propagation and access logging (see requestlog.go).
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /runs", s.handleSubmit)
	mux.HandleFunc("GET /runs/{id}", s.handleStatus)
	mux.HandleFunc("GET /runs/{id}/events", s.handleEvents)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /readyz", s.handleReadyz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /compare", s.handleCompare)
	mux.HandleFunc("GET /jobs", s.handleJobs)
	return s.withTelemetry(mux)
}

// jobID renders a job's public ID. Single-node servers keep the historic
// "r-<seq>" form; clustered nodes embed their NodeID so IDs are unique
// cluster-wide and name their owner for request routing.
func (s *Server) jobID(seq int64) string {
	if s.cfg.NodeID == "" {
		return fmt.Sprintf("r-%d", seq)
	}
	return fmt.Sprintf("r-%s-%d", s.cfg.NodeID, seq)
}

// observeLatency folds one job's repetition times into its series
// histogram.
func (s *Server) observeLatency(workload, kit string, times []time.Duration) {
	k := histKey{workload: workload, kit: kit}
	s.histMu.Lock()
	defer s.histMu.Unlock()
	h := s.hists[k]
	if h == nil {
		h = stats.NewHistogram()
		s.hists[k] = h
	}
	for _, d := range times {
		h.AddDuration(d)
	}
}
