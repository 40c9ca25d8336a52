# Build/verify entry points for the splash4 reproduction.
#
#   make check        tier-1 gate: build, go vet, splash4-vet concurrency
#                     invariants, full test suite, trace smoke test
#   make race         tier-2 gate: the whole suite under the Go race detector
#   make vet          just the concurrency-invariant analyzers (splash4-vet)
#   make allocs-gate  re-measure every //sync4:zeroalloc annotation with
#                     testing.AllocsPerRun (uncached)
#   make bench        the testing.B experiment targets
#   make trace-smoke  capture fft traces under both kits and validate them
#   make serve-smoke  drive the splash4d daemon end to end over HTTP
#   make chaos        fault-injection gate: workloads under the faulty kit
#                     with the watchdog armed, plus the wedged fixture
#   make traffic-gate SLO gate: live loadgen smoke against a loopback
#                     splash4d (retry contract end to end), then the
#                     pinned-seed deterministic sim that writes the
#                     byte-stable BENCH_traffic.json artifact
#   make cluster-smoke boot a 3-node loopback cluster and drive routing,
#                     journal shipping, work stealing, node kill with
#                     reclaim, and cluster-wide /compare census identity
#   make cluster-chaos partition-tolerance gate: the 3-node cluster through
#                     a pinned-seed fault schedule (asymmetric partition
#                     during stealing, latency storm during shipping,
#                     origin crash-restart mid-tail) ending with zero lost
#                     jobs and byte-identical 3-way /compare after heal
#   make conformance  verify docs/CONFORMANCE.md matches the tree's
#                     //sync4:req tags byte for byte and every MUST-level
#                     requirement has a covering conformance test
#   make conformance-gen regenerate docs/CONFORMANCE.md after tag edits

GO ?= go
TRACE_TMP := $(shell mktemp -d 2>/dev/null || echo /tmp)
CHAOS_SEED ?= 42
TRAFFIC_SEED ?= 42

.PHONY: check vet allocs-gate race test build bench trace-smoke serve-smoke chaos traffic-gate cluster-smoke cluster-chaos conformance conformance-gen

check: build
	$(GO) vet ./...
	$(GO) run ./cmd/splash4-vet ./...
	$(MAKE) conformance
	$(GO) test ./...
	$(MAKE) allocs-gate
	$(MAKE) trace-smoke
	$(MAKE) serve-smoke

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...
	$(GO) run ./cmd/splash4-vet ./...

# allocs-gate forces an uncached run of the zero-alloc conformance test:
# every //sync4:zeroalloc annotation in the module is re-measured with
# testing.AllocsPerRun under both kits (plus the traced/instrumented
# wrappers) and must come out at exactly zero.
allocs-gate:
	$(GO) test -count=1 -run ZeroAlloc ./internal/allocgate/ ./internal/sync4/... ./internal/server/

race:
	$(GO) test -race ./...

test:
	$(GO) test ./...

bench:
	$(GO) test -bench=. -benchmem .

# trace-smoke runs the tracer end to end on fft at test scale under both
# kits. splash4-trace itself exits non-zero if the Chrome JSON fails
# validation or the trace census disagrees with sync4.Instrument.
trace-smoke:
	$(GO) run ./cmd/splash4-trace -workload fft -kit classic -threads 4 -scale test -out $(TRACE_TMP)/fft-classic.trace.json >/dev/null
	$(GO) run ./cmd/splash4-trace -workload fft -kit lockfree -threads 4 -scale test -out $(TRACE_TMP)/fft-lockfree.trace.json >/dev/null
	@echo "trace-smoke: ok"

# serve-smoke boots an ephemeral splash4d on a loopback port and drives the
# full API — submit under both kits, poll, /compare, /metrics, graceful
# drain — exiting non-zero on any failure. The run's measured speedup lands
# in BENCH_serve.json to seed the service perf trajectory.
serve-smoke:
	$(GO) run ./cmd/splash4d -smoke -store $(TRACE_TMP)/serve-smoke.jsonl -out BENCH_serve.json
	@echo "serve-smoke: ok"

# chaos runs fft and radix under both kits with deterministic fault
# injection (pinned seed — failures reproduce by rerunning with the same
# CHAOS_SEED) and the watchdog armed, requiring verified, census-identical
# results; then runs the wedged fixture and requires the watchdog to
# produce a structured stall diagnosis (chaos-diag.txt, uploaded as a CI
# artifact by the chaos-smoke job).
chaos:
	$(GO) run ./cmd/splash4-chaos -chaos-seed $(CHAOS_SEED) -workloads fft,radix -threads 4 -scale test
	$(GO) run ./cmd/splash4-chaos -wedge -rep-timeout 2s -diag chaos-diag.txt
	@echo "chaos: ok"

# traffic-gate is the service-level SLO gate. The live leg self-hosts a
# loopback splash4d (1 worker, capacity-2 ring) and drives every schedule
# shape through it, verifying the client retry contract end to end: bursts
# provoke real 429s with in-range Retry-After, dedup-hostile clumps get
# singleflight 200s, and an injected journal fault produces degraded 503s
# with a clean recovery. The sim leg re-runs the shapes through the
# deterministic pipeline model and writes BENCH_traffic.json — byte-stable
# under the pinned TRAFFIC_SEED, so CI can diff it across runs. Either leg
# failing its SLOs or contract checks fails the target.
traffic-gate:
	$(GO) run ./cmd/splash4-loadgen -mode live -seed $(TRAFFIC_SEED) -out BENCH_traffic_live.json
	$(GO) run ./cmd/splash4-loadgen -mode sim -seed $(TRAFFIC_SEED) -out BENCH_traffic.json
	@echo "traffic-gate: ok"

# cluster-smoke runs the clustertest.Smoke scenario (internal/cluster/
# clustertest, the engine shared with cluster-chaos): a 3-node splash4d
# cluster on loopback sockets driven through every clustered behavior in
# order: consistent-hash routing (same spec → same owner from any entry
# node), journal shipping to lag zero with byte-identical /compare on all
# three nodes, work stealing off a pinned backlog, a mid-theft node kill
# with health-probe reclaim, re-routing straight to a live stand-in (no
# failed hop on the entry node), stolen-job access-log lines naming both
# nodes, lint-clean /metrics, and zero lost accepted jobs. The summary
# lands in BENCH_cluster.json.
cluster-smoke:
	$(GO) run ./cmd/splash4d -cluster-smoke -out BENCH_cluster.json
	@echo "cluster-smoke: ok"

# cluster-chaos is the partition-tolerance gate, the clustertest.Chaos
# scenario over the same engine as cluster-smoke: a 3-node in-process
# cluster behind seeded fault-injecting transports driven through the full
# failure schedule — baseline census identity, an asymmetric partition during
# stealing (completions die in transit, breaker opens, deadline reclaim
# takes the loans home, heal closes the breaker through a half-open trial),
# a latency storm that forces hedged journal fetches, and an origin
# crash-restart whose truncated journal and new generation force the
# anti-entropy resync. Zero lost jobs, breaker transitions on /metrics,
# lint-clean /metrics on every node, and a byte-identical 3-way /compare
# are required. The report lands in BENCH_cluster_chaos.json and the
# per-node fault decision log in cluster-chaos-decisions.jsonl; failures
# reproduce with the same CHAOS_SEED.
cluster-chaos:
	$(GO) run ./cmd/splash4-chaos -cluster -chaos-seed $(CHAOS_SEED) -out BENCH_cluster_chaos.json -decisions cluster-chaos-decisions.jsonl
	@echo "cluster-chaos: ok"

# conformance is the spec drift gate: regenerate the conformance document
# in memory from the tree's //sync4:req tags and fail on any byte of
# difference from the committed docs/CONFORMANCE.md, or on any MUST-level
# requirement whose coverage proof no longer goes through.
conformance:
	$(GO) run ./cmd/splash4-vet -conformance-check docs/CONFORMANCE.md ./...
	@echo "conformance: ok"

# conformance-gen rewrites docs/CONFORMANCE.md; run after adding, editing,
# or re-covering //sync4:req requirements, and commit the result.
conformance-gen:
	$(GO) run ./cmd/splash4-vet -conformance docs/CONFORMANCE.md ./...
