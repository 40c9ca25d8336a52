package clustertest

import "testing"

// TestRunChaosFullSchedule runs the whole pinned-seed chaos gate end to
// end: baseline census identity, an asymmetric partition during stealing
// with breaker open/half-open/close and deadline reclaim, a latency storm
// with hedged journal fetches, and an origin crash-restart whose journal
// generation change forces the anti-entropy resync — ending with zero lost
// jobs and a byte-identical three-way /compare. This is the same schedule
// `make cluster-chaos` gates CI on.
//
//sync4:covers SYNC4-CLUS-003
//sync4:covers SYNC4-CLUS-004
func TestRunChaosFullSchedule(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos schedule takes seconds; skipped in -short")
	}
	rep, err := Chaos(42, t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	if rep.JobsLost != 0 || rep.JobsTotal == 0 {
		t.Fatalf("chaos run lost %d of %d jobs", rep.JobsLost, rep.JobsTotal)
	}
	if !rep.CompareIdentical || rep.CompareBytes == 0 {
		t.Fatalf("final compare not byte-identical: %+v", rep)
	}
	if rep.BreakerTransitions < 3 || rep.BreakerFinal != "closed" {
		t.Fatalf("breaker evidence missing: %d transitions, final %q",
			rep.BreakerTransitions, rep.BreakerFinal)
	}
	if rep.HedgedOnB == 0 || rep.ResyncsOnB == 0 || rep.ResyncsOnC == 0 ||
		rep.RepairBytesOnB == 0 || rep.PartitionHeals == 0 {
		t.Fatalf("robustness counters missing from the report: %+v", rep)
	}
	// The decision logs are the replay evidence; the directed drops of
	// the partition phase must be on c's log.
	if len(rep.Faults["c"].Decisions) == 0 {
		t.Fatal("c's netfaulty decision log is empty")
	}
}

// TestSmoke runs the cluster smoke over the real suite: routing,
// replication with census identity, stealing, a mid-theft node kill with
// reclaim, re-routing to a live stand-in, and the stolen-job access-log
// trail. This is the same run `make cluster-smoke` gates CI on.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("cluster smoke runs real workloads for seconds; skipped in -short")
	}
	rep, err := Smoke(t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	if rep.JobsLost != 0 || rep.JobsTotal == 0 {
		t.Fatalf("smoke lost %d of %d jobs", rep.JobsLost, rep.JobsTotal)
	}
	if !rep.CompareIdentical || len(rep.Compare) == 0 {
		t.Fatal("survivors' /compare not byte-identical")
	}
	if rep.Stolen <= 0 || rep.Donated <= 0 || rep.Reclaimed <= 0 {
		t.Fatalf("stealing evidence missing: %+v", rep)
	}
}
