package clustertest

import (
	"encoding/json"
	"fmt"
	"time"

	"repro/internal/cluster"
)

// SmokeReport is the cluster smoke's summary (BENCH_cluster.json).
type SmokeReport struct {
	Bench            string            `json:"bench"`
	Compare          json.RawMessage   `json:"compare"`
	CompareIdentical bool              `json:"compare_identical"`
	Donated          float64           `json:"donated"`
	Generated        string            `json:"generated"`
	JobsLost         int               `json:"jobs_lost"`
	JobsTotal        int               `json:"jobs_total"`
	Nodes            []string          `json:"nodes"`
	OwnersBySeed     map[string]string `json:"owners_by_seed"`
	Reclaimed        float64           `json:"reclaimed"`
	Stolen           float64           `json:"stolen"`
}

// Smoke drives the cluster smoke over the real suite, in order:
//
//  1. Routing: one spec submitted through a and through b lands on one
//     owner (consistent hash), and the keyspace spreads across nodes.
//  2. Replication: every replica catches up and /compare answers
//     byte-identically from all three nodes.
//  3. Stealing: slow jobs pinned onto a's single worker; c steals some.
//  4. Node death: c is killed while it owes a an outcome; a's health
//     probe flips c down, reclaim re-queues the loans, every job finishes.
//  5. Re-routing: a spec c owns goes to a live stand-in, with no failed
//     hop to the dead owner on the entry node.
//  6. Survivors agree: a and b replicate and answer /compare identically.
//  7. Audit: /metrics lints clean and no accepted job is lost.
//  8. Drain: a and b drain, and a's access log names both nodes on
//     stolen-job lines.
func Smoke(logf func(string, ...any)) (*SmokeReport, error) {
	c, err := Start(0, logf, nil)
	if err != nil {
		return nil, err
	}
	defer c.Close()
	a, b, cn := c.Nodes()
	rep := &SmokeReport{Bench: "cluster-smoke", Nodes: c.IDs(), OwnersBySeed: map[string]string{}}
	cSeed := int64(0) // the first probe seed whose spec the ring gives to c

	routing := func() {
		var ids []string
		distinct := map[string]bool{}
		for _, kit := range []string{"classic", "lockfree"} {
			for seed := int64(1); seed <= 4; seed++ {
				spec := Spec(kit, "test", 2, seed)
				idA, idB := c.Submit(a, spec)[0], c.Admit(b.Base, spec, true)
				owner := cluster.JobOwner(idA)
				c.Check(owner != "" && owner == cluster.JobOwner(idB), "routing disagreement: %q (via a) and %q (via b)", idA, idB)
				if kit == "classic" {
					rep.OwnersBySeed[fmt.Sprintf("seed-%d", seed)], distinct[owner] = owner, true
					if owner == "c" && cSeed == 0 {
						cSeed = seed
					}
				}
				ids = append(ids, idA, idB)
			}
		}
		c.Check(len(distinct) >= 2, "consistent hashing routed every spec to one node (%v); want spread", rep.OwnersBySeed)
		c.logf("cluster-smoke: owners per seed %v", rep.OwnersBySeed)
		c.AwaitDone(a.Base, ids...)
	}

	replication := func() {
		c.AwaitReplication()
		c.Compare()
	}

	// Slow jobs pinned onto a's single worker pile up for c to steal.
	stealing := func() {
		c.AwaitDone(a.Base, c.Pin(a, Specs("lockfree", "small", 4, 100, 112)...)...)
		rep.Stolen, rep.Donated = cn.Metric("splash4d_jobs_stolen_total"), a.Metric("splash4d_jobs_donated_total")
		c.Check(rep.Stolen > 0 && rep.Donated > 0, "no stealing under imbalance: c stole %v, a donated %v", rep.Stolen, rep.Donated)
		c.logf("cluster-smoke: a donated %v, c stole %v", rep.Donated, rep.Stolen)
	}

	nodeDeath := func() {
		ids := c.Pin(a, Specs("lockfree", "small", 4, 200, 208)...)
		a.Await("c never stole from the kill batch", atLeast(1), "splash4d_jobs_stolen_outstanding")
		c.Kill(cn)
		c.logf("cluster-smoke: killed node c mid-theft")
		c.AwaitDone(a.Base, ids...)
		rep.Reclaimed = a.Metric("splash4d_jobs_reclaimed_total")
		c.Check(rep.Reclaimed > 0, "killing c mid-theft reclaimed nothing")
		a.Await("still thinks c is up", eq(0), "splash4d_peer_up", "peer", "c")
	}

	// A hop to the dead owner would fail over to local admission on a and
	// still mint a live ID, so the proof is a's forward-error counter: the
	// spec must go straight to a live stand-in.
	rerouting := func() {
		if cSeed == 0 {
			c.Failf("no probe seed is owned by c (owners %v); the re-route check cannot run", rep.OwnersBySeed)
			return
		}
		before := a.Metric("splash4d_forward_errors_total")
		id := c.Submit(a, Spec("classic", "test", 2, cSeed))[0]
		after := a.Metric("splash4d_forward_errors_total")
		c.Check(cluster.JobOwner(id) != "c" && after == before,
			"spec owned by dead node c was routed to it: job %s, a's forward errors %v -> %v", id, before, after)
		c.logf("cluster-smoke: c's keyspace served by %s", cluster.JobOwner(id))
		c.AwaitDone(a.Base, id)
	}

	survivors := func() {
		c.AwaitReplication()
		rep.Compare = c.Compare()
		rep.CompareIdentical = c.err == nil
	}

	audit := func() {
		rep.JobsTotal, rep.JobsLost = c.JobsTotal(), c.Audit()
	}

	// Every job line of a's access log must name its node, and the lines of
	// jobs c stole must name c too.
	drain := func() {
		c.Stop(a)
		c.Stop(b)
		thieves := map[string]int{}
		for _, l := range c.AccessLog(a.AccessLog) {
			if l.Kind == "job" {
				c.Check(l.Node != "", "clustered job %s line without node annotation", l.RequestID)
				if l.RanOn != "" && l.RanOn != l.Node {
					thieves[l.RanOn]++
				}
			}
		}
		c.Check(len(thieves) > 0, "access log %s has no stolen-job lines naming both nodes", a.AccessLog)
		c.logf("cluster-smoke: access log stolen job lines by thief %v", thieves)
	}

	err = c.Run("cluster-smoke", []Phase{
		{"routing", routing},
		{"replication", replication},
		{"stealing", stealing},
		{"node death", nodeDeath},
		{"re-routing", rerouting},
		{"survivors agree", survivors},
		{"audit", audit},
		{"drain", drain},
	})
	if err != nil {
		return nil, err
	}
	rep.Generated = time.Now().UTC().Format(time.RFC3339)
	return rep, nil
}
