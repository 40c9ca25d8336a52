package main

import (
	"encoding/json"
	"fmt"
	"os"

	"repro/internal/cluster/clustertest"
	"repro/internal/cluster/netfaulty"
)

// runCluster is the -cluster mode: the partition-tolerance gate. It drives
// clustertest.Chaos — a 3-node in-process cluster through the pinned-seed
// fault schedule (asymmetric partition during stealing, latency storm
// during shipping, origin crash-restart mid-tail) — and writes the report
// and each node's netfaulty decision log for CI artifacts. Exit is nonzero
// on any broken invariant; a failure reproduces by rerunning with the same
// -chaos-seed.
func runCluster(seed int64, outPath, decisionsPath string) error {
	rep, err := clustertest.Chaos(uint64(seed), func(format string, args ...any) {
		fmt.Printf(format+"\n", args...)
	})
	if err != nil {
		return fmt.Errorf("cluster gate (reproduce with -chaos-seed %d): %w", seed, err)
	}
	if outPath != "" {
		if err := clustertest.WriteReport(outPath, rep); err != nil {
			return fmt.Errorf("writing report: %w", err)
		}
	}
	if decisionsPath != "" {
		if err := writeDecisionLog(decisionsPath, rep.Faults); err != nil {
			return fmt.Errorf("writing decision log: %w", err)
		}
	}
	fmt.Printf("cluster-chaos: ok (%d jobs, breaker transitions %d, resyncs %d+%d, repair %dB)\n",
		rep.JobsTotal, rep.BreakerTransitions, rep.ResyncsOnB, rep.ResyncsOnC, rep.RepairBytesOnB)
	return nil
}

// writeDecisionLog renders every node's fault decisions as JSON lines,
// node-prefixed, so a failed run replays from the artifact.
func writeDecisionLog(path string, faults map[string]netfaulty.Report) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	enc := json.NewEncoder(f)
	for _, node := range []string{"a", "b", "c"} {
		rep, ok := faults[node]
		if !ok {
			continue
		}
		for _, d := range rep.Decisions {
			if err := enc.Encode(struct {
				Node string `json:"node"`
				netfaulty.Decision
			}{Node: node, Decision: d}); err != nil {
				return err
			}
		}
	}
	return nil
}
