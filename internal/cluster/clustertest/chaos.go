package clustertest

import (
	"time"

	"repro/internal/cluster/netfaulty"
	"repro/internal/cluster/peernet"
)

// ChaosReport is the chaos gate's evidence (BENCH_cluster_chaos.json): the
// counters the assertions checked and the per-node fault decision logs.
type ChaosReport struct {
	Seed      uint64   `json:"seed"`
	Nodes     []string `json:"nodes"`
	JobsTotal int      `json:"jobs_total"`
	JobsLost  int      `json:"jobs_lost"`

	StolenByC          int64  `json:"stolen_by_c"`
	BreakerTransitions int64  `json:"breaker_transitions_c_to_a"`
	BreakerFinal       string `json:"breaker_final_c_to_a"`
	HedgedOnB          int64  `json:"hedged_on_b"`
	ResyncsOnB         int64  `json:"resyncs_on_b"`
	ResyncsOnC         int64  `json:"resyncs_on_c"`
	RepairBytesOnB     int64  `json:"repair_bytes_on_b"`
	PartitionHeals     int64  `json:"partition_heals_on_c"`

	CompareBytes     int  `json:"compare_bytes"`
	CompareIdentical bool `json:"compare_identical"`

	Faults map[string]netfaulty.Report `json:"faults"`
}

// breakerStates names splash4d_peer_breaker_state's values.
var breakerStates = [...]string{"closed", "open", "half-open"}

// Chaos drives the partition-tolerance gate over the gated instant bench,
// in order:
//
//	baseline   routed submissions complete, journals replicate, and
//	           /compare answers byte-identically from all three nodes.
//	partition  c steals a's backlog while every c→a data exchange is
//	           dropped and a→c still flows: c's completions die in transit,
//	           c's breaker for a opens, a's reclaim deadline takes the loans
//	           home, and after the heal the breaker walks back to closed
//	           through a half-open trial. No job is lost.
//	storm      b's fetches of a's journal are held past the hedge delay, so
//	           hedged second requests fire.
//	restart    a is killed, its journal loses its last record, and it
//	           restarts in place under a new journal generation. The
//	           followers resync their replicas from offset zero; without the
//	           resync in repair.go they keep the dead generation's records
//	           and this phase fails.
//	converge   every accepted job done, every replica caught up, a
//	           three-way byte-identical /compare, and the robustness
//	           counters visible on /metrics.
//	audit      /metrics lints clean on every node and no job is lost.
func Chaos(seed uint64, logf func(string, ...any)) (*ChaosReport, error) {
	c, err := Start(seed, logf, Instant)
	if err != nil {
		return nil, err
	}
	defer c.Close()
	a, b, cn := c.Nodes()
	rep := &ChaosReport{Seed: seed, Nodes: c.IDs()}
	counter := func(n *Node, name string, labels ...string) int64 { return int64(n.Metric(name, labels...)) }

	baseline := func() {
		var ids []string
		for seed := int64(1); seed <= 3; seed++ {
			for _, kit := range []string{"classic", "lockfree"} {
				ids = append(ids, c.Submit(c.nodes[seed%3], Spec(kit, "test", 2, seed))...)
			}
		}
		c.AwaitDone(a.Base, ids...)
		c.AwaitReplication()
		c.Compare()
	}

	partition := func() {
		// Stage one drops c→a data exchanges while health and steal still
		// flow: thefts keep happening, every completion dies in transit,
		// and the failing gated traffic trips c's breaker for a. Health
		// must flow here: the shipper and stealer only talk to peers they
		// believe are up.
		cn.Faults.Partition("a", peernet.EndpointComplete, peernet.EndpointStolenQ, peernet.EndpointJournal)
		a.Gate.Wedge()
		ids := c.Pin(a, Specs("lockfree", "test", 2, 100, 106)...)
		c.Await("c losing a completion against the partition", func() bool {
			return cn.Metric("splash4d_steal_errors_total") > 0 && a.Metric("splash4d_jobs_stolen_outstanding") > 0
		})
		cn.Await("never opened its breaker for a", eq(1), "splash4d_peer_breaker_state", "peer", "a")
		// Stage two: the full directed drop, health included. c must see a
		// down while a still sees c up: the partition is asymmetric.
		cn.Faults.Partition("a")
		cn.Await("never saw a down through the partition", eq(0), "splash4d_peer_up", "peer", "a")
		c.Check(a.Metric("splash4d_peer_up", "peer", "c") == 1, "a sees c down: the partition was supposed to be asymmetric")
		a.Await("never reclaimed its loans", eq(0), "splash4d_jobs_stolen_outstanding")
		// Heal: c's prober counts it, and the breaker walks back to closed
		// through a half-open trial on the resuming journal traffic.
		cn.Faults.Heal("a")
		c.Await("c's breaker for a closing after the heal", func() bool {
			return cn.Metric("splash4d_peer_breaker_state", "peer", "a") == 0 && cn.Metric("splash4d_peer_up", "peer", "a") == 1
		})
		a.Gate.Release()
		c.AwaitDone(a.Base, ids...)
		rep.BreakerFinal = breakerStates[counter(cn, "splash4d_peer_breaker_state", "peer", "a")]
		rep.BreakerTransitions = counter(cn, "splash4d_peer_breaker_transitions_total", "peer", "a")
		rep.PartitionHeals = counter(cn, "splash4d_partition_heals_total")
		c.Check(rep.BreakerTransitions >= 3, "breaker logged %d transitions, want the closed→open→half-open→closed walk", rep.BreakerTransitions)
		c.Check(rep.PartitionHeals > 0, "c counted no partition heal")
		c.logf("cluster-chaos: %d jobs reclaimed home, breaker transitions %d", len(ids), rep.BreakerTransitions)
	}

	storm := func() {
		b.Faults.SetLatency("a", 160*time.Millisecond, peernet.EndpointJournal)
		c.AwaitDone(a.Base, c.Pin(a, Specs("lockfree", "test", 2, 200, 202)...)...)
		b.Await("never hedged a slow journal fetch", atLeast(1), "splash4d_hedged_requests_total")
		b.Faults.Heal("a")
		rep.HedgedOnB = counter(b, "splash4d_hedged_requests_total")
	}

	restart := func() {
		// The followers first tail a's journal whole, so the record about to
		// be truncated is one they replicated: the resync must remove
		// state, the hardest direction.
		c.AwaitReplication()
		c.Kill(a)
		c.TruncateLastRecord(a)
		b.Await("never saw a down after the kill", eq(0), "splash4d_peer_up", "peer", "a")
		cn.Await("never saw a down after the kill", eq(0), "splash4d_peer_up", "peer", "a")
		c.Restart(a)
		// The followers must notice the generation change and repair: their
		// replicas drop to a's surviving records, one fewer than they
		// tailed before the crash.
		for _, f := range []*Node{b, cn} {
			c.Await(f.ID+" resyncing a's replica after the restart", func() bool {
				return f.Metric("splash4d_journal_resyncs_total") > 0 &&
					f.Metric("splash4d_journal_replica_records", "peer", "a") == float64(a.store.Len())
			})
		}
		rep.ResyncsOnB = counter(b, "splash4d_journal_resyncs_total")
		rep.ResyncsOnC = counter(cn, "splash4d_journal_resyncs_total")
		rep.RepairBytesOnB = counter(b, "splash4d_repair_bytes_total")
		c.Check(rep.RepairBytesOnB > 0, "repair pulled no bytes on b")
		c.logf("cluster-chaos: resyncs b=%d c=%d, repair pulled %d bytes on b",
			rep.ResyncsOnB, rep.ResyncsOnC, rep.RepairBytesOnB)
	}

	converge := func() {
		c.AwaitDone(b.Base, c.Submit(b, Specs("lockfree", "test", 2, 300, 303)...)...)
		c.AwaitReplication()
		rep.CompareBytes = len(c.Compare())
		rep.CompareIdentical = c.err == nil
		// The robustness counters must be visible on c's /metrics, not just
		// in process state: the scrape and the decision log are the
		// operator's view of the run. (The breaker, heal and resync series
		// were read from c above.)
		for _, name := range []string{"splash4d_peer_retries_total", "splash4d_repair_bytes_total", "splash4d_hedged_requests_total"} {
			cn.Metric(name)
		}
		rep.StolenByC = counter(cn, "splash4d_jobs_stolen_total") // informational
	}

	audit := func() {
		rep.JobsTotal, rep.JobsLost = c.JobsTotal(), c.Audit()
	}

	err = c.Run("cluster-chaos", []Phase{
		{"baseline", baseline},
		{"partition", partition},
		{"storm", storm},
		{"restart", restart},
		{"converge", converge},
		{"audit", audit},
	})
	if err != nil {
		return nil, err
	}
	rep.Faults = map[string]netfaulty.Report{"b": b.Faults.Report(), "c": cn.Faults.Report()}
	c.logf("cluster-chaos: PASS (%d jobs, %d lost, 3-way compare identical at %d bytes)",
		rep.JobsTotal, rep.JobsLost, rep.CompareBytes)
	return rep, nil
}
