// Command splash4d is the Splash-4 benchmark execution daemon: a
// long-running HTTP service that runs suite workloads on demand through the
// measurement harness, journals every result to an append-only JSONL store,
// and answers classic-vs-lockfree comparison queries with bootstrap
// confidence intervals. Its own job pipeline runs on the suite's lock-free
// constructs — the admission queue is the sync4/lockfree MPMC ring.
//
//	splash4d -addr :8724 -store splash4d.jsonl
//
// The API is documented in docs/SERVICE.md. On SIGTERM or SIGINT the daemon
// drains: it stops admitting (503), finishes in-flight jobs up to
// -drain-timeout, flushes the store, and exits.
//
// With -smoke the binary instead starts an ephemeral instance on a loopback
// port, drives a small fft measurement under both kits through the real
// HTTP API (submit, poll, compare, metrics), drains it, and writes the
// result summary to -out. `make serve-smoke` runs this as the service's
// end-to-end gate.
//
// With -node-id and -peers the daemon joins a cluster (internal/cluster):
// job specs route to their consistent-hash owner, idle nodes steal queued
// work from busy peers, and every node replicates the others' result
// journals so reads answer cluster-wide. See docs/CLUSTER.md.
//
//	splash4d -addr :8724 -node-id a -peers b=http://h2:8724,c=http://h3:8724
//
// With -cluster-smoke the binary runs the clustertest.Smoke scenario: a
// self-contained 3-node loopback cluster through routing, stealing, a node
// kill with reclaim, and cluster-wide /compare identity, writing a summary
// to -out (BENCH_cluster.json). The scenario fixes its own node
// configuration, so the pipeline flags do not apply. `make cluster-smoke`
// runs this as the cluster's end-to-end gate.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/cluster"
	"repro/internal/cluster/clustertest"
	"repro/internal/resultstore"
	"repro/internal/server"
	"repro/internal/telemetry"
)

func main() {
	var (
		addr         = flag.String("addr", ":8724", "listen address")
		storePath    = flag.String("store", "splash4d.jsonl", "append-only JSONL result store")
		queueCap     = flag.Int("queue", 64, "admission ring capacity (rounds up to a power of two, min 2)")
		workers      = flag.Int("workers", 0, "worker pool size (0 means GOMAXPROCS)")
		drainTimeout = flag.Duration("drain-timeout", 30*time.Second, "how long a drain waits for in-flight jobs")
		jobTimeout   = flag.Duration("job-timeout", 5*time.Minute, "per-job execution budget; a job exceeding it fails instead of wedging its worker")
		repTimeout   = flag.Duration("rep-timeout", 0, "per-repetition watchdog deadline (0 means the job timeout)")
		smoke        = flag.Bool("smoke", false, "run the self-contained smoke sequence and exit")
		out          = flag.String("out", "", "smoke result path (default BENCH_serve.json, or BENCH_cluster.json with -cluster-smoke)")
		accessLog    = flag.String("access-log", "", "structured JSONL access log path (request + job lifecycle lines); empty disables")
		debugAddr    = flag.String("debug-addr", "", "separate listener for net/http/pprof; empty disables")
		nodeID       = flag.String("node-id", "", "this node's cluster name; empty runs single-node")
		peers        = flag.String("peers", "", "comma-separated peer list, id=http://host:port pairs (requires -node-id)")
		clusterSmoke = flag.Bool("cluster-smoke", false, "run the 3-node in-process cluster smoke and exit")
	)
	flag.Parse()

	cfg := server.Config{
		QueueCapacity: *queueCap,
		Workers:       *workers,
		JobTimeout:    *jobTimeout,
		RepTimeout:    *repTimeout,
		NodeID:        *nodeID,
	}
	if *clusterSmoke {
		if *out == "" {
			*out = "BENCH_cluster.json"
		}
		rep, err := clustertest.Smoke(log.Printf)
		if err == nil {
			err = clustertest.WriteReport(*out, rep)
		}
		if err != nil {
			log.Fatalf("splash4d cluster smoke: %v", err)
		}
		log.Printf("cluster-smoke: PASS, wrote %s", *out)
		return
	}
	if *out == "" {
		*out = "BENCH_serve.json"
	}
	if *smoke {
		if err := runSmoke(*storePath, *out, *accessLog, cfg, *drainTimeout); err != nil {
			log.Fatalf("splash4d smoke: %v", err)
		}
		return
	}
	peerMap, err := parsePeers(*peers)
	if err != nil {
		log.Fatalf("splash4d: %v", err)
	}
	if len(peerMap) > 0 && *nodeID == "" {
		log.Fatalf("splash4d: -peers requires -node-id")
	}
	if err := serve(*addr, *storePath, *accessLog, *debugAddr, cfg, *drainTimeout, peerMap); err != nil {
		log.Fatalf("splash4d: %v", err)
	}
}

// parsePeers splits "-peers b=http://h:1,c=http://h:2" into a map.
func parsePeers(s string) (map[string]string, error) {
	if s == "" {
		return nil, nil
	}
	out := make(map[string]string)
	for _, pair := range strings.Split(s, ",") {
		id, base, ok := strings.Cut(strings.TrimSpace(pair), "=")
		if !ok || id == "" || base == "" {
			return nil, fmt.Errorf("bad -peers entry %q (want id=url)", pair)
		}
		out[id] = strings.TrimSuffix(base, "/")
	}
	return out, nil
}

// newServer opens the store and builds the pipeline; the caller owns all
// three returned resources (the access log is nil when disabled). The
// journal runs under SyncAlways: the daemon acknowledges a result only
// after it is on disk (fsync before the index publish), so a crash can
// never lose an acknowledged measurement.
func newServer(storePath, accessLogPath string, cfg server.Config) (*server.Server, *resultstore.Store, *telemetry.AccessLog, error) {
	store, err := resultstore.OpenWithOptions(storePath, resultstore.Options{Sync: resultstore.SyncAlways})
	if err != nil {
		return nil, nil, nil, fmt.Errorf("opening result store: %w", err)
	}
	var al *telemetry.AccessLog
	if accessLogPath != "" {
		al, err = telemetry.OpenAccessLog(accessLogPath)
		if err != nil {
			store.Close()
			return nil, nil, nil, fmt.Errorf("opening access log: %w", err)
		}
		cfg.AccessLog = al
	}
	cfg.Store = store
	srv, err := server.New(cfg)
	if err != nil {
		if al != nil {
			al.Close()
		}
		store.Close()
		return nil, nil, nil, err
	}
	if n := store.Skipped(); n > 0 {
		log.Printf("store %s: skipped %d malformed journal lines on replay", storePath, n)
	}
	return srv, store, al, nil
}

// startDebug serves net/http/pprof on its own listener, keeping the
// profiling surface off the public API address.
func startDebug(addr string) (*http.Server, string, error) {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, "", fmt.Errorf("debug listener: %w", err)
	}
	hs := &http.Server{Handler: mux}
	go hs.Serve(ln)
	return hs, "http://" + ln.Addr().String(), nil
}

func serve(addr, storePath, accessLogPath, debugAddr string, cfg server.Config, drainTimeout time.Duration, peers map[string]string) error {
	srv, store, al, err := newServer(storePath, accessLogPath, cfg)
	if err != nil {
		return err
	}
	defer store.Close()
	if al != nil {
		defer al.Close()
	}
	if debugAddr != "" {
		dbg, dbgBase, err := startDebug(debugAddr)
		if err != nil {
			srv.Close()
			return err
		}
		defer dbg.Close()
		log.Printf("debug (pprof) listening on %s", dbgBase)
	}

	// Clustered: wrap the API with the routing/peer layer and start the
	// background loops (health probes, journal shipping, work stealing).
	handler := srv.Handler()
	var cl *cluster.Cluster
	if len(peers) > 0 {
		cl, err = cluster.New(cluster.Config{
			Self:   cfg.NodeID,
			Peers:  peers,
			Server: srv,
			Logf:   log.Printf,
		})
		if err != nil {
			srv.Close()
			return err
		}
		handler = cl.Handler()
		cl.Start()
		log.Printf("cluster: node %s with %d peer(s)", cfg.NodeID, len(peers))
	}

	hs := &http.Server{Addr: addr, Handler: handler}
	errc := make(chan error, 1)
	go func() {
		err := hs.ListenAndServe()
		if err != nil && err != http.ErrServerClosed {
			errc <- err
		}
	}()
	log.Printf("splash4d listening on %s (store %s, %d replayed results)", addr, storePath, store.Len())

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGTERM, syscall.SIGINT)
	select {
	case err := <-errc:
		srv.Close()
		return err
	case sig := <-sigc:
		log.Printf("%s: draining (timeout %v)", sig, drainTimeout)
	}

	// Cluster loops stop before the drain so nothing donates or ships
	// against a draining pipeline.
	if cl != nil {
		cl.Stop()
	}
	ctx, cancel := context.WithTimeout(context.Background(), drainTimeout)
	defer cancel()
	drainErr := srv.Drain(ctx)
	if err := hs.Shutdown(context.Background()); err != nil {
		log.Printf("http shutdown: %v", err)
	}
	if drainErr != nil {
		return fmt.Errorf("drain: %w", drainErr)
	}
	log.Printf("drained cleanly; %d results journaled", store.Len())
	return nil
}

// runSmoke exercises the service end to end over a real loopback socket:
// both kits of fft at test scale, status polling, /compare, /metrics, and a
// graceful drain. It writes a JSON summary suitable for tracking the
// service's measured speedup over time.
func runSmoke(storePath, outPath, accessLogPath string, cfg server.Config, drainTimeout time.Duration) error {
	// The smoke always exercises the access log; default it next to the
	// summary artifact when the flag is unset.
	if accessLogPath == "" {
		accessLogPath = outPath + ".access.jsonl"
	}
	srv, store, al, err := newServer(storePath, accessLogPath, cfg)
	if err != nil {
		return err
	}
	defer store.Close()
	defer al.Close()

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return err
	}
	hs := &http.Server{Handler: srv.Handler()}
	go hs.Serve(ln)
	base := "http://" + ln.Addr().String()

	// The profiling surface comes up on its own loopback listener.
	dbg, dbgBase, err := startDebug("127.0.0.1:0")
	if err != nil {
		srv.Close()
		return err
	}
	defer dbg.Close()

	const (
		workload = "fft"
		threads  = 2
		scale    = "test"
		reps     = 3
	)
	var st clustertest.Steps
	runs := make(map[string]map[string]any)
	for _, kit := range []string{"classic", "lockfree"} {
		spec := fmt.Sprintf(`{"workload":%q,"kit":%q,"threads":%d,"scale":%q,"reps":%d,"seed":1}`,
			workload, kit, threads, scale, reps)
		id := st.Admit(base, spec, false)
		st.AwaitDone(base, id)
		var view struct{ Result map[string]any }
		st.GetJSON(base+"/runs/"+id, &view)
		st.Check(st.Err() != nil || view.Result != nil, "%s run %s finished without a result payload", kit, id)
		runs[kit] = view.Result
		if mean, ok := view.Result["mean_ns"].(float64); ok {
			log.Printf("smoke: %s/%s done (mean %.3fms)", workload, kit, mean/1e6)
		}
	}
	var compare map[string]any
	st.GetJSON(base+fmt.Sprintf("/compare?workload=%s&threads=%d&scale=%s&seed=1", workload, threads, scale), &compare)
	// The exposition must lint clean and carry the pipeline series the run
	// populated.
	st.LintMetrics(base)
	st.Check(st.Metric(base, "splash4d_jobs_completed_total") == 2, "/metrics does not count both runs completed")
	if m := st.Metrics(base); m != nil {
		st.Check(m.Families["splash4d_run_duration_seconds"] != nil, "/metrics has no run duration histogram")
	}
	// Liveness and readiness must both be green on a healthy instance, and
	// the pprof surface must answer on the debug listener.
	for _, probe := range []string{base + "/healthz", base + "/readyz", dbgBase + "/debug/pprof/cmdline"} {
		st.Get(probe)
	}
	if err := st.Err(); err != nil {
		srv.Close()
		return err
	}

	ctx, cancel := context.WithTimeout(context.Background(), drainTimeout)
	defer cancel()
	if err := srv.Drain(ctx); err != nil {
		return fmt.Errorf("drain: %w", err)
	}
	if err := hs.Shutdown(context.Background()); err != nil {
		return fmt.Errorf("http shutdown: %w", err)
	}
	// With the daemon drained, the access log must hold every HTTP
	// exchange and one complete job line per finished run.
	if err := al.Flush(); err != nil {
		return fmt.Errorf("access log flush: %w", err)
	}
	var jobs, https int
	for _, l := range st.AccessLog(accessLogPath) {
		switch l.Kind {
		case "http":
			https++
		case "job":
			jobs++
			st.Check(l.RequestID != "", "access log job line without request_id")
			if err := telemetry.ChainPhases(l.Spans); err != nil {
				st.Failf("access log job %s span chain: %v", l.RequestID, err)
			}
		}
	}
	st.Check(jobs >= 2 && https > 0, "access log has %d job / %d http lines, want >=2 / >=1", jobs, https)
	if err := st.Err(); err != nil {
		return err
	}
	log.Printf("smoke: access log %s holds %d http + %d job lines with complete span chains", accessLogPath, https, jobs)

	summary := map[string]any{
		"bench":     "serve-smoke",
		"workload":  workload,
		"threads":   threads,
		"scale":     scale,
		"reps":      reps,
		"runs":      runs,
		"compare":   compare,
		"generated": time.Now().UTC().Format(time.RFC3339),
	}
	if err := clustertest.WriteReport(outPath, summary); err != nil {
		return err
	}
	log.Printf("smoke: speedup %v, wrote %s", compare["speedup"], outPath)
	return nil
}
