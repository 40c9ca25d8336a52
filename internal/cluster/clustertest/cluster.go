// Package clustertest boots, kills and restarts a 3-node splash4d cluster
// on loopback sockets and drives it through ordered, named phases. The two
// cluster gates are scenarios over this one engine: Smoke
// (`make cluster-smoke`) and Chaos (`make cluster-chaos`).
//
// Every node is built one way: a SyncAlways journal, a JSONL access log,
// and a netfaulty transport over the production HTTP transport with a
// zero-probability plan, so a fault happens only where a phase installs a
// directed rule while every peer exchange still lands on the decision log.
// The topology is fixed too: node a runs one worker and never steals (the
// victim whose backlog phases build), b never steals, and c is the only
// thief, which keeps the stealing phases exact. The engine observes the
// cluster only through each node's HTTP API (driven by Steps, /metrics
// parsed with promtext) and the record count of the journal it opened for
// the node; it reads no cluster or server internals.
package clustertest

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/cluster/netfaulty"
	"repro/internal/cluster/peernet"
	"repro/internal/core"
	"repro/internal/resultstore"
	"repro/internal/server"
	"repro/internal/telemetry"
)

// compareQuery is the census both scenarios byte-compare across nodes.
const compareQuery = "/compare?workload=fft&threads=2&scale=test&seed=42&resamples=500"

// Node is one in-process cluster node.
type Node struct {
	ID        string
	Base      string // "http://127.0.0.1:<port>"
	AccessLog string // path of the node's JSONL access log
	// Faults is the node's fault layer; phases install directed rules on it.
	Faults *netfaulty.Transport
	// Gate wedges the node's workers under the Instant resolver.
	Gate *Gate

	c     *Cluster
	seed  uint64
	addr  string
	hs    *http.Server
	srv   *server.Server
	store *resultstore.Store
	log   *telemetry.AccessLog
	cl    *cluster.Cluster
	down  bool
}

// Cluster is a running 3-node loopback cluster. Its steps record the
// first failure; Run reports it with its phase.
type Cluster struct {
	Steps
	dir       string
	resolver  func(*Gate) func(string) (core.Benchmark, error)
	logf      func(string, ...any)
	nodes     []*Node
	destroyed int // admissions whose record a phase deleted from disk
}

// Start boots nodes a, b and c in a temp dir and waits until each sees
// both peers up; on failure the cluster is already closed. Node i's fault
// layer runs seed+i, logf receives phase and cluster narration, and
// resolver builds each node's workload resolver around the node's gate
// (nil runs the real suite).
func Start(seed uint64, logf func(string, ...any), resolver func(*Gate) func(string) (core.Benchmark, error)) (*Cluster, error) {
	dir, err := os.MkdirTemp("", "splash4d-cluster-*")
	if err != nil {
		return nil, err
	}
	c := &Cluster{dir: dir, resolver: resolver, logf: logf}
	var lns []net.Listener
	for i, id := range c.IDs() {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			c.Failf("listening for node %s: %v", id, err)
			break
		}
		lns = append(lns, ln)
		c.nodes = append(c.nodes, &Node{ID: id, c: c, seed: seed + uint64(i),
			addr: ln.Addr().String(), Base: "http://" + ln.Addr().String(),
			AccessLog: filepath.Join(c.dir, id+".access.jsonl")})
	}
	for i, n := range c.nodes {
		if c.err != nil {
			lns[i].Close()
			continue
		}
		c.start(n, lns[i])
	}
	for _, n := range c.nodes {
		n.Await("never saw both peers up", eq(2), "splash4d_peer_up")
	}
	if c.err != nil {
		c.Close()
		return nil, c.err
	}
	c.logf("cluster: 3 nodes up (a=%s b=%s c=%s)", c.nodes[0].Base, c.nodes[1].Base, c.nodes[2].Base)
	return c, nil
}

// start builds n's journal, access log, server, fault layer and cluster
// layer and serves them on ln. Every scenario shares these intervals.
func (c *Cluster) start(n *Node, ln net.Listener) {
	closers := []func() error{ln.Close}
	fail := func(err error) {
		for i := len(closers) - 1; i >= 0; i-- {
			closers[i]()
		}
		c.Failf("starting node %s: %v", n.ID, err)
	}
	store, err := resultstore.OpenWithOptions(filepath.Join(c.dir, n.ID+".jsonl"),
		resultstore.Options{Sync: resultstore.SyncAlways})
	if err != nil {
		fail(err)
		return
	}
	closers = append(closers, store.Close)
	al, err := telemetry.OpenAccessLog(n.AccessLog)
	if err != nil {
		fail(err)
		return
	}
	closers = append(closers, al.Close)
	n.Gate = &Gate{}
	scfg := server.Config{Store: store, NodeID: n.ID, Workers: 2, JobTimeout: jobWait, AccessLog: al}
	if n.ID == "a" {
		scfg.Workers = 1 // the backlog behind one worker is what c steals
	}
	if c.resolver != nil {
		scfg.Resolver = c.resolver(n.Gate)
	}
	srv, err := server.New(scfg)
	if err != nil {
		fail(err)
		return
	}
	closers = append(closers, srv.Close)
	peers := make(map[string]string, len(c.nodes)-1)
	for _, p := range c.nodes {
		if p != n {
			peers[p.ID] = p.Base
		}
	}
	n.Faults = netfaulty.New(peernet.NewHTTPTransport(2*time.Second),
		netfaulty.Plan{Seed: n.seed, Record: 512})
	steal := time.Hour // only c steals, so the stealing phases are exact
	if n.ID == "c" {
		steal = 15 * time.Millisecond
	}
	cl, err := cluster.New(cluster.Config{
		Self:            n.ID,
		Peers:           peers,
		Server:          srv,
		Transport:       n.Faults,
		HealthInterval:  25 * time.Millisecond,
		ShipInterval:    15 * time.Millisecond,
		StealInterval:   steal,
		StealBatch:      4,
		ReclaimAfter:    5 * time.Second,
		HTTPTimeout:     2 * time.Second,
		BreakerCooldown: 250 * time.Millisecond,
		RepairInterval:  100 * time.Millisecond,
		Logf:            c.logf,
	})
	if err != nil {
		fail(err)
		return
	}
	n.store, n.log, n.srv, n.cl, n.down = store, al, srv, cl, false
	n.hs = &http.Server{Handler: cl.Handler()}
	go n.hs.Serve(ln)
	cl.Start()
}

// IDs returns the node IDs in ring order.
func (c *Cluster) IDs() []string { return []string{"a", "b", "c"} }

// Nodes returns nodes a, b and c.
func (c *Cluster) Nodes() (a, b, cn *Node) { return c.nodes[0], c.nodes[1], c.nodes[2] }

// live returns the nodes neither killed nor stopped.
func (c *Cluster) live() []*Node {
	var out []*Node
	for _, n := range c.nodes {
		if !n.down {
			out = append(out, n)
		}
	}
	return out
}

// Phase is one named step of a scenario.
type Phase struct {
	Name string
	Run  func()
}

// Run executes the phases in order; the first failure ends the run and
// names its phase.
func (c *Cluster) Run(scenario string, phases []Phase) error {
	for _, p := range phases {
		if p.Run(); c.err != nil {
			return fmt.Errorf("%s: %s: %w", scenario, p.Name, c.err)
		}
		c.logf("%s: %s OK", scenario, p.Name)
	}
	return nil
}

// Kill crashes n: its cluster loops stop without handoff (a stolen job
// still executing drops its completion), its listener closes, and its
// server gets a short forced drain, so jobs out on loan to a partitioned
// thief fail locally instead of hanging the kill.
func (c *Cluster) Kill(n *Node) { c.shutdown(n, n.cl.Kill, 2*time.Second) }

// Stop shuts n down gracefully: cluster loops first, so nothing donates or
// ships against a draining pipeline, then a full drain, which must finish,
// and a flushed access log.
func (c *Cluster) Stop(n *Node) {
	if err := c.shutdown(n, n.cl.Stop, jobWait); err != nil {
		c.Failf("stopping node %s: %v", n.ID, err)
	}
}

func (c *Cluster) shutdown(n *Node, stopLoops func(), drain time.Duration) error {
	if n.down || n.cl == nil {
		return nil
	}
	n.down = true
	n.Gate.Release() // a wedged worker must not hang the drain
	stopLoops()
	n.hs.Close()
	ctx, cancel := context.WithTimeout(context.Background(), drain)
	defer cancel()
	return errors.Join(n.srv.Drain(ctx), n.store.Close(), n.log.Close())
}

// Restart brings a killed n back in place: the same address and journal
// file (reopened, so under a new journal generation) and the same fault
// seed, with a fresh fault layer and gate.
func (c *Cluster) Restart(n *Node) {
	var ln net.Listener
	c.await("rebinding "+n.addr, 5*time.Second, func() bool {
		var err error
		ln, err = net.Listen("tcp", n.addr)
		return err == nil
	})
	if c.err == nil {
		c.start(n, ln)
	}
}

// Close takes down every node still running, waiting out its cluster
// loops so none logs after Close returns, and removes the cluster's dir.
func (c *Cluster) Close() {
	for _, n := range c.nodes {
		if n.down {
			n.cl.Stop() // waits out the loops a Kill left running
		}
		c.shutdown(n, n.cl.Stop, 2*time.Second)
	}
	os.RemoveAll(c.dir)
}

// TruncateLastRecord drops the last line of a killed n's journal: the crash
// that loses an acknowledged suffix, which anti-entropy repair exists for.
// The admission whose record it destroys leaves the lost-job count, since
// the loss is the phase's own doing (and a restarted n may mint its ID
// again).
func (c *Cluster) TruncateLastRecord(n *Node) {
	path := filepath.Join(c.dir, n.ID+".jsonl")
	data, err := os.ReadFile(path)
	if err != nil {
		c.Failf("reading journal: %v", err)
	}
	trimmed := bytes.TrimRight(data, "\n")
	i := bytes.LastIndexByte(trimmed, '\n')
	var rec struct{ ID string }
	if c.err != nil || i < 0 || json.Unmarshal(trimmed[i+1:], &rec) != nil {
		c.Failf("journal %s: no last record to truncate", path)
		return
	}
	if j := slices.Index(c.admitted, rec.ID); j >= 0 {
		c.admitted = slices.Delete(c.admitted, j, j+1)
		c.destroyed++
	}
	c.logf("cluster: truncated %s's journal, destroying job %s's record", n.ID, rec.ID)
	if err := os.WriteFile(path, data[:i+1], 0o644); err != nil {
		c.Failf("truncating journal: %v", err)
	}
}

// Spec renders one fft job spec. The census query covers the test-scale,
// 2-thread ones.
func Spec(kit, scale string, reps int, seed int64) string {
	return fmt.Sprintf(`{"workload":"fft","kit":%q,"threads":2,"scale":%q,"reps":%d,"seed":%d}`,
		kit, scale, reps, seed)
}

// Specs renders Spec for every seed in [from, to).
func Specs(kit, scale string, reps int, from, to int64) []string {
	var out []string
	for seed := from; seed < to; seed++ {
		out = append(out, Spec(kit, scale, reps, seed))
	}
	return out
}

// Submit admits each spec through entry's routed POST /runs and returns
// the job IDs.
func (c *Cluster) Submit(entry *Node, specs ...string) []string { return c.admitAll(entry, specs) }

// Pin is Submit with the hop guard set, forcing admission on n whatever
// the ring says: the tool for piling load onto one node.
func (c *Cluster) Pin(n *Node, specs ...string) []string {
	return c.admitAll(n, specs, "X-Splash4d-Forwarded-By", "pin")
}

func (c *Cluster) admitAll(n *Node, specs []string, header ...string) []string {
	ids := make([]string, len(specs))
	for i, spec := range specs {
		ids[i] = c.Admit(n.Base, spec, false, header...)
	}
	return ids
}

// AwaitReplication waits until every live node's replica of every other
// node's journal holds exactly that journal's record count at zero ship
// lag. The lag gauge alone can read a stale zero (it measures against the
// durable size of the follower's last round), so the counts are the proof.
func (c *Cluster) AwaitReplication() {
	for _, n := range c.live() {
		for _, p := range c.nodes {
			if p != n {
				c.Await(fmt.Sprintf("node %s catching up on %s's journal", n.ID, p.ID), func() bool {
					return n.Metric("splash4d_journal_replica_records", "peer", p.ID) == float64(p.store.Len()) &&
						n.Metric("splash4d_journal_ship_lag", "peer", p.ID) == 0
				})
			}
		}
	}
}

// Compare asks every live node for the census, requires byte identity, and
// returns the shared body.
func (c *Cluster) Compare() []byte {
	live := c.live()
	want := c.Get(live[0].Base + compareQuery)
	c.Check(len(want) > 0, "empty /compare body from %s", live[0].ID)
	for _, n := range live[1:] {
		body := c.Get(n.Base + compareQuery)
		c.Check(bytes.Equal(body, want), "census diverged: /compare via %s differs from %s's answer:\n%s\nvs\n%s",
			n.ID, live[0].ID, want, body)
	}
	return want
}

// JobsTotal is the number of fresh admissions.
func (c *Cluster) JobsTotal() int { return len(c.admitted) + c.destroyed }

// Audit ends a scenario: every live node's /metrics must lint clean, and
// every admitted job must be done cluster-wide. It returns the lost-job
// count (admissions a live node's /jobs does not list as done, except
// records a phase destroyed itself), which must be zero. Run it after
// AwaitReplication, so /jobs covers every journal.
func (c *Cluster) Audit() int {
	live := c.live()
	for _, n := range live {
		c.LintMetrics(n.Base)
	}
	var list struct {
		Jobs []struct{ ID, Status string }
	}
	c.GetJSON(live[0].Base+"/jobs", &list)
	done := make(map[string]bool, len(list.Jobs))
	for _, j := range list.Jobs {
		done[j.ID] = j.Status == "done"
	}
	var lost []string
	for _, id := range c.admitted {
		if !done[id] {
			lost = append(lost, id)
		}
	}
	c.Check(len(lost) == 0, "%d accepted job(s) not done: %v", len(lost), lost)
	return len(lost)
}

// Metric scrapes one of n's series (see Steps.Metric).
func (n *Node) Metric(name string, labels ...string) float64 {
	return n.c.Metric(n.Base, name, labels...)
}

// Await polls one of n's series until ok holds.
func (n *Node) Await(what string, ok func(float64) bool, name string, labels ...string) {
	n.c.Await(fmt.Sprintf("node %s %s (%s%v)", n.ID, what, name, labels), func() bool {
		return ok(n.Metric(name, labels...))
	})
}

// Gate wedges a node's workers under the Instant resolver: after Wedge
// every run blocks until Release.
type Gate struct{ ch atomic.Pointer[chan struct{}] }

// Wedge makes every subsequent run block until Release.
func (g *Gate) Wedge() {
	ch := make(chan struct{})
	g.ch.Store(&ch)
}

// Release unblocks every wedged run.
func (g *Gate) Release() {
	if ch := g.ch.Swap(nil); ch != nil {
		close(*ch)
	}
}

// Instant resolves every workload name to a bench that finishes at once
// unless g is wedged: network chaos needs controllable job timing, not
// real kernels.
func Instant(g *Gate) func(string) (core.Benchmark, error) {
	return func(name string) (core.Benchmark, error) { return instant{name, g}, nil }
}

// instant is both the bench and its instance.
type instant struct {
	name string
	gate *Gate
}

func (b instant) Name() string                               { return b.name }
func (b instant) Description() string                        { return "gated instant bench" }
func (b instant) Prepare(core.Config) (core.Instance, error) { return b, nil }
func (b instant) Verify() error                              { return nil }

func (b instant) Run() error {
	if ch := b.gate.ch.Load(); ch != nil {
		<-*ch
	}
	return nil
}
