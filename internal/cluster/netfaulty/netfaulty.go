// Package netfaulty is the cluster's network-fault layer: a
// peernet.PeerTransport decorator (in the mold of sync4/faulty, which
// plays the same role for synchronization operations) that perturbs peer
// exchanges according to a seeded, deterministic plan. The cluster's
// partition-tolerance claim — that breakers, retry budgets, reclaim and
// anti-entropy repair converge every node back to a byte-identical census —
// is only credible if it survives hostile networks, not just loopback;
// this package manufactures the hostile networks on demand and makes each
// one reproducible from a single seed.
//
// Fault classes:
//
//   - latency: an exchange is held before it reaches the wire, widening
//     probe gaps and triggering hedged requests;
//   - refuse: the exchange fails as if the peer's port were closed;
//   - cut: the response body is truncated mid-stream after a deterministic
//     byte count, exercising torn-line tolerance in journal shipping;
//   - stale: the last successful response for the same (peer, endpoint) is
//     replayed instead of performing the exchange — a stale read. Only
//     stale-tolerant read endpoints (health, stolen re-probes) are
//     replayed; byte-offset streams such as journal tails are exempt, as
//     TCP does not replay response bytes within a connection;
//   - partition: a directed drop rule installed by the test schedule, not
//     a probability. Partition(b) on node A's transport refuses every
//     exchange A→B while B's transport is untouched — the asymmetric
//     "A sees B down, B sees A up" split that probabilistic faults cannot
//     express.
//
// Probabilistic decisions are a pure function of (seed, peer, endpoint,
// per-(peer,endpoint) operation count), so they do not depend on
// cross-goroutine interleaving: the same seed refuses the n-th journal
// fetch from a given peer in every run. Directed rules (Partition,
// SetLatency) are schedule steps the chaos driver flips at phase
// boundaries. Every injection is counted and the first Plan.Record
// decisions are kept verbatim for the post-mortem decision log.
package netfaulty

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"repro/internal/cluster/peernet"
	"repro/internal/splitmix"
)

// Fault enumerates the injected fault classes.
type Fault uint8

// Fault classes, in injection-report order.
const (
	FaultLatency Fault = iota
	FaultRefuse
	FaultCut
	FaultStale
	FaultPartition
	numFaults
)

// String implements fmt.Stringer.
func (f Fault) String() string {
	switch f {
	case FaultLatency:
		return "latency"
	case FaultRefuse:
		return "refuse"
	case FaultCut:
		return "cut"
	case FaultStale:
		return "stale"
	case FaultPartition:
		return "partition"
	default:
		return "fault-unknown"
	}
}

// MarshalText renders the class name, so decision logs serialize readably.
func (f Fault) MarshalText() ([]byte, error) { return []byte(f.String()), nil }

// Plan configures the probabilistic background schedule. Probabilities are
// in [0, 1]; a zero Plan injects nothing (directed rules still apply).
type Plan struct {
	// Seed selects the deterministic schedule. Two transports with equal
	// plans make identical per-(peer, endpoint, op) decisions.
	Seed uint64
	// Latency is the probability of holding an exchange before the wire.
	Latency float64
	// LatencyMax bounds one injected hold; the actual hold is a
	// deterministic fraction of it. Defaults to 50ms.
	LatencyMax time.Duration
	// Refuse is the probability of failing an exchange at dial time.
	Refuse float64
	// Cut is the probability of truncating a response body mid-stream.
	Cut float64
	// Stale is the probability of replaying the last successful response
	// for the same (peer, endpoint) instead of performing the exchange.
	// Applied only to stale-tolerant endpoints (health, stolen re-probes).
	Stale float64
	// Record keeps the first Record injection decisions for the decision
	// log. 0 records nothing.
	Record int
}

// Mild returns a background plan the cluster is expected to ride through
// without client-visible damage: occasional latency and stale reads, rare
// refusals, no cuts.
func Mild(seed uint64) Plan {
	return Plan{Seed: seed, Latency: 0.05, LatencyMax: 20 * time.Millisecond,
		Refuse: 0.01, Stale: 0.05, Record: 256}
}

// Aggressive returns Mild with higher rates plus body cuts; only schedules
// that end in an explicit heal-and-converge phase should run under it.
func Aggressive(seed uint64) Plan {
	return Plan{Seed: seed, Latency: 0.15, LatencyMax: 50 * time.Millisecond,
		Refuse: 0.05, Cut: 0.05, Stale: 0.1, Record: 256}
}

func (p Plan) latencyMax() time.Duration {
	if p.LatencyMax <= 0 {
		return 50 * time.Millisecond
	}
	return p.LatencyMax
}

// Decision is one recorded injection: the Seq-th exchange with Peer on
// Endpoint drew fault class Fault.
type Decision struct {
	Peer     string `json:"peer"`
	Endpoint string `json:"endpoint"`
	Seq      int64  `json:"seq"`
	Fault    Fault  `json:"fault"`
}

// Report is a snapshot of a transport's injection activity.
type Report struct {
	// Ops is the number of exchanges that passed through the transport.
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

// staleOK lists the endpoints whose responses may be replayed stale: reads
// whose consumers tolerate an out-of-date answer by design.
func staleOK(endpoint string) bool {
	return endpoint == peernet.EndpointHealth || endpoint == peernet.EndpointStolenQ
}

// stored is one replayable response snapshot.
type stored struct {
	status int
	body   []byte
}

// Transport decorates an inner PeerTransport with the fault schedule. All
// methods are safe for concurrent use.
type Transport struct {
	inner peernet.PeerTransport
	plan  Plan

	mu       sync.Mutex
	ops      int64
	seq      map[string]int64 // per (peer "/" endpoint) exchange count
	parts    map[string]bool  // directed drops: "peer/*" or "peer/endpoint"
	slow     map[string]time.Duration
	last     map[string]stored // last successful response, stale-tolerant endpoints only
	injected [numFaults]int64
	rec      []Decision
}

// New decorates inner with plan's schedule.
func New(inner peernet.PeerTransport, plan Plan) *Transport {
	return &Transport{
		inner: inner,
		plan:  plan,
		seq:   make(map[string]int64),
		parts: make(map[string]bool),
		slow:  make(map[string]time.Duration),
		last:  make(map[string]stored),
	}
}

// Plan returns the schedule configuration.
func (t *Transport) Plan() Plan { return t.plan }

// Partition installs a directed drop of every exchange to peer, or only
// the named endpoints when given. The peer's own transport is unaffected,
// which is exactly what makes the split asymmetric.
func (t *Transport) Partition(peer string, endpoints ...string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(endpoints) == 0 {
		t.parts[peer+"/*"] = true
		return
	}
	for _, ep := range endpoints {
		t.parts[peer+"/"+ep] = true
	}
}

// Heal removes every directed drop and latency rule toward peer.
func (t *Transport) Heal(peer string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for k := range t.parts {
		if keyPeer(k) == peer {
			delete(t.parts, k)
		}
	}
	for k := range t.slow {
		if keyPeer(k) == peer {
			delete(t.slow, k)
		}
	}
}

// SetLatency installs a directed hold of d on every exchange to peer, or
// only the named endpoints when given. d <= 0 removes the matching rules.
func (t *Transport) SetLatency(peer string, d time.Duration, endpoints ...string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	keys := []string{peer + "/*"}
	if len(endpoints) > 0 {
		keys = keys[:0]
		for _, ep := range endpoints {
			keys = append(keys, peer+"/"+ep)
		}
	}
	for _, k := range keys {
		if d <= 0 {
			delete(t.slow, k)
			continue
		}
		t.slow[k] = d
	}
}

// Report snapshots the injection counts and recorded decisions.
func (t *Transport) Report() Report {
	t.mu.Lock()
	defer t.mu.Unlock()
	r := Report{Ops: t.ops, Injected: t.injected}
	r.Decisions = append(r.Decisions, t.rec...)
	return r
}

func keyPeer(key string) string {
	for i := 0; i < len(key); i++ {
		if key[i] == '/' {
			return key[:i]
		}
	}
	return key
}

// site hashes one (peer, endpoint) pair into the draw space (fnv64a).
func site(peer, endpoint string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(peer); i++ {
		h = (h ^ uint64(peer[i])) * 1099511628211
	}
	h = (h ^ '/') * 1099511628211
	for i := 0; i < len(endpoint); i++ {
		h = (h ^ uint64(endpoint[i])) * 1099511628211
	}
	return h
}

// roll returns the deterministic uniform draw in [0, 1) for the n-th
// exchange on site.
func (t *Transport) roll(site uint64, n int64) float64 {
	h := splitmix.Mix(splitmix.Mix(t.plan.Seed^site) ^ uint64(n))
	return float64(h>>11) / (1 << 53)
}

// fire decides, counts and optionally records one injection. Caller holds
// mu.
func (t *Transport) fire(f Fault, prob float64, s uint64, n int64, peer, endpoint string) bool {
	if prob <= 0 {
		return false
	}
	// Offset the draw space per fault class so one exchange consults
	// independent streams for each class.
	if t.roll(s^(uint64(f)<<56), n) >= prob {
		return false
	}
	t.inject(f, peer, endpoint, n)
	return true
}

// inject counts and records one injection. Caller holds mu.
func (t *Transport) inject(f Fault, peer, endpoint string, n int64) {
	t.injected[f]++
	if t.plan.Record > 0 && len(t.rec) < t.plan.Record {
		t.rec = append(t.rec, Decision{Peer: peer, Endpoint: endpoint, Seq: n, Fault: f})
	}
}

// verdict is the decided fate of one exchange.
type verdict struct {
	hold   time.Duration
	refuse bool
	cut    int  // >= 0: truncate the response body after this many bytes
	stale  bool // replay the stored response
	replay stored
}

// decide resolves every rule and probability for the exchange.
func (t *Transport) decide(call *peernet.PeerCall) verdict {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.ops++
	key := call.Peer + "/" + call.Endpoint
	n := t.seq[key] + 1
	t.seq[key] = n
	s := site(call.Peer, call.Endpoint)
	v := verdict{cut: -1}

	// Directed rules first: the schedule's word beats the dice.
	if t.parts[call.Peer+"/*"] || t.parts[key] {
		t.inject(FaultPartition, call.Peer, call.Endpoint, n)
		v.refuse = true
		return v
	}
	if d, ok := t.slow[call.Peer+"/*"]; ok {
		v.hold = d
		t.inject(FaultLatency, call.Peer, call.Endpoint, n)
	} else if d, ok := t.slow[key]; ok {
		v.hold = d
		t.inject(FaultLatency, call.Peer, call.Endpoint, n)
	}

	if v.hold == 0 && t.fire(FaultLatency, t.plan.Latency, s, n, call.Peer, call.Endpoint) {
		// Deterministic fraction of the bound, never zero.
		frac := t.roll(s^(uint64(FaultLatency)<<56)^(1<<63), n)
		v.hold = time.Duration(float64(t.plan.latencyMax()) * (0.25 + 0.75*frac))
	}
	if t.fire(FaultRefuse, t.plan.Refuse, s, n, call.Peer, call.Endpoint) {
		v.refuse = true
		return v
	}
	if staleOK(call.Endpoint) && t.plan.Stale > 0 {
		if prev, ok := t.last[key]; ok && t.fire(FaultStale, t.plan.Stale, s, n, call.Peer, call.Endpoint) {
			v.stale, v.replay = true, prev
			return v
		}
	}
	if t.fire(FaultCut, t.plan.Cut, s, n, call.Peer, call.Endpoint) {
		v.cut = int(splitmix.Mix(t.plan.Seed^s^uint64(n)) % 256)
	}
	return v
}

// RoundTrip applies the decided fate and delegates to the inner transport.
func (t *Transport) RoundTrip(ctx context.Context, call *peernet.PeerCall) (*peernet.PeerResponse, error) {
	v := t.decide(call)
	if v.hold > 0 {
		timer := time.NewTimer(v.hold)
		select {
		case <-ctx.Done():
			timer.Stop()
			return nil, ctx.Err()
		case <-timer.C:
		}
	}
	if v.refuse {
		return nil, fmt.Errorf("netfaulty: connection to %s refused (%s)", call.Peer, call.Endpoint)
	}
	if v.stale {
		return &peernet.PeerResponse{
			Status: v.replay.status,
			Header: http.Header{"Content-Type": []string{"application/json"}},
			Body:   io.NopCloser(bytes.NewReader(v.replay.body)),
		}, nil
	}
	resp, err := t.inner.RoundTrip(ctx, call)
	if err != nil {
		return nil, err
	}
	if v.cut >= 0 {
		resp.Body = &cutBody{inner: resp.Body, left: v.cut, peer: call.Peer}
		return resp, nil
	}
	if staleOK(call.Endpoint) && t.plan.Stale > 0 && resp.Status < 500 {
		resp.Body = &recordBody{inner: resp.Body, t: t, key: call.Peer + "/" + call.Endpoint, status: resp.Status}
	}
	return resp, nil
}

// cutBody truncates the response mid-stream: after left bytes every read
// fails like a torn connection.
type cutBody struct {
	inner io.ReadCloser
	left  int
	peer  string
}

func (c *cutBody) Read(p []byte) (int, error) {
	if c.left <= 0 {
		return 0, fmt.Errorf("netfaulty: response from %s cut mid-body", c.peer)
	}
	if len(p) > c.left {
		p = p[:c.left]
	}
	n, err := c.inner.Read(p)
	c.left -= n
	if err == nil && c.left <= 0 {
		err = fmt.Errorf("netfaulty: response from %s cut mid-body", c.peer)
	}
	return n, err
}

func (c *cutBody) Close() error { return c.inner.Close() }

// recordBody tees a successful response into the stale-replay store as the
// caller consumes it.
type recordBody struct {
	inner  io.ReadCloser
	t      *Transport
	key    string
	status int
	buf    []byte
	done   bool
}

// staleBodyCap bounds one stored replay body.
const staleBodyCap = 4 << 10

func (r *recordBody) Read(p []byte) (int, error) {
	n, err := r.inner.Read(p)
	if n > 0 && len(r.buf) < staleBodyCap {
		r.buf = append(r.buf, p[:n]...)
	}
	if err == io.EOF && !r.done && len(r.buf) <= staleBodyCap {
		r.done = true
		r.t.mu.Lock()
		r.t.last[r.key] = stored{status: r.status, body: append([]byte(nil), r.buf...)}
		r.t.mu.Unlock()
	}
	return n, err
}

func (r *recordBody) Close() error { return r.inner.Close() }
