# Tier-1 verification for this repository. `make ci` is what a change
# must keep green (see CONTRIBUTING.md).

GO ?= go

.PHONY: ci fmt vet vet-isampbench build test race bench bench-short bench-ab \
	experiments clean-cache fuzz fuzz-smoke doc-lint fusion-smoke scenario-smoke

ci: fmt vet vet-isampbench doc-lint build test race fuzz-smoke fusion-smoke \
	scenario-smoke bench-short

fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

# cmd/isampbench, the benchmark of record, is its own module, so the
# root build and vet never compile it; vet it in place so a change to an
# internal API it uses cannot break it silently. (vet, not build: a
# build there would drop an isampbench binary into the directory.)
vet-isampbench:
	$(GO) -C cmd/isampbench vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The experiment engine runs measurement cells on concurrent goroutines
# that share results and compiled programs through its stores, the VM's
# differential tests run parallel subtests over the frame pools
# and scheduler, the oracle tests exercise the observer hooks from
# parallel seeds, the trigger tests drive fault-injected timers under
# threaded programs, the service daemon runs its queue/worker/SSE
# machinery against live HTTP clients, the scenario sweep records and
# replays generated programs in parallel, the fleet coordinator
# dispatches, relays and cancels across workers, and the three daemons'
# and CLI's own tests drive all of it end to end; keep all ten packages
# race-clean. Each test runs under the race detector once, here, and
# the tests below are pinned by name: race fails unless each shows its
# PASS line (a name matches as a prefix), so a renamed or skipped gate
# still fails ci.
#
#   TestMutationKill (internal/oracle): the oracle's mutation test.
#     Partial-Duplication compiled with a deliberately forgotten
#     backedge mask (core.FaultSkipBackedgeMask) must be flagged as a
#     Property-1 violation; an oracle that stops observing fails it.
#   TestTelemetrySmoke (cmd/isamp): a small instrumented benchmark
#     through the real isamp CLI path with -verify, -trace and -metrics,
#     validating the Chrome trace-event JSON and the metrics CSV header.
#   TestCLIMatchesJob (cmd/isamp): every variation x every job trigger
#     (plus yieldopt, icache and verify legs) through isamp's run path
#     and as a job on a live service.Server must report the same
#     return, output, Stats, code sizes and profile entries.
#   TestServiceSmoke (cmd/isampd): boot isampd on an ephemeral port,
#     submit and stream a job, resubmit at another interval (one
#     program-store miss, then a hit) and verbatim (a byte-identical
#     result-store hit), cancel a long-running job, validate /metrics,
#     drain via the SIGTERM path.
#   TestDaemonObservability (cmd/isampd): isampd at -obs full with a
#     trace directory, debug listener and structured logs: ledger rows
#     sum to total_ns, /trace parses as Chrome JSON, pprof answers.
#   TestObsFullMergedTrace, TestObsLedgerSumEqualsJobLatency,
#   TestObsChainCompleted (internal/service): the full-mode merged trace
#     carries cycle-aligned VM events inside vm-run, the ledger equals
#     the job's end-to-end extent, the completed chain is gap-free.
#   TestFleetTraceAndLedger (internal/fabric): a coordinator job's
#     /trace parses with a dispatch span, its ledger sums to total_ns,
#     and PUT /v1/obs turns ledgers off.
#   TestFleetSmoke (cmd/isampfleet): the real isampfleet entrypoint
#     (config file, flags, SIGHUP reload) over three in-process isampd
#     workers: a batch with duplicates, one worker killed mid-job, every
#     job terminal, zero lost cells, a byte-identical CAS hit.
#   TestMixedTraffic (internal/fabric): one seeded mixed-traffic
#     sequence through a daemon and a two-worker fleet, with exact
#     invariants per op (DESIGN.md §11).
#   TestFusionDifferentialSweep, TestCallBoundarySweep, TestFused...,
#   TestFuseBlockOperandOverflow, TestAllEventsObserverDisablesFusion,
#   TestSparseObserverKeepsFusion (internal/vm): the fused tier against
#     the reference — the seeded sweep, generated programs aimed at fused
#     calls and returns, and every fused-block edge case (traps, cancel
#     and quantum mid-pair, checks and probes in streams, the operand
#     overflow fallback, observer degradation, sparse observers kept
#     fused, coverage floors).
#   TestSweepProperty, TestRecordReplayDifferential,
#   TestReplayDetectsTampering (internal/scenario): the workload-family
#     sweep recorded on the fast dispatcher and replayed bit-identically
#     on both, under the oracle, and the tampering detector.
RACE_PINNED = TestMutationKill TestTelemetrySmoke TestCLIMatchesJob \
	TestServiceSmoke TestDaemonObservability TestObsFullMergedTrace \
	TestObsLedgerSumEqualsJobLatency TestObsChainCompleted \
	TestFleetTraceAndLedger TestFleetSmoke TestMixedTraffic \
	TestFusionDifferentialSweep TestCallBoundarySweep TestFused \
	TestFuseBlockOperandOverflow TestAllEventsObserverDisablesFusion \
	TestSparseObserverKeepsFusion TestSweepProperty \
	TestRecordReplayDifferential TestReplayDetectsTampering

race:
	@out=$$($(GO) test -race -v ./internal/experiment/ ./internal/vm/ \
		./internal/oracle/ ./internal/trigger/ ./internal/service/ \
		./internal/scenario/ ./internal/fabric/ ./cmd/isamp/ \
		./cmd/isampd/ ./cmd/isampfleet/) \
		|| { echo "$$out" | grep -v -e '^=== ' -e '^    --- PASS' -e '^--- PASS'; exit 1; }; \
	for t in $(RACE_PINNED); do \
		echo "$$out" | grep -q -e "--- PASS: $$t" || { echo "race: $$t did not pass"; exit 1; }; \
	done; \
	echo "$$out" | grep -e '^ok' -e '^PASS$$' -e '^FAIL'

# Native fuzzing (go test -fuzz), 30s per target. Each target keeps its
# regression corpus in testdata/fuzz/; crashers found here land there
# automatically. One -fuzz pattern per invocation is a go tool limit.
fuzz:
	$(GO) test -run '^$$' -fuzz '^FuzzAsmRoundTrip$$' -fuzztime 30s ./internal/asm/
	$(GO) test -run '^$$' -fuzz '^FuzzTransform$$' -fuzztime 30s ./internal/core/
	$(GO) test -run '^$$' -fuzz '^FuzzVariations$$' -fuzztime 30s ./internal/oracle/
	$(GO) test -run '^$$' -fuzz '^FuzzReplayRoundTrip$$' -fuzztime 30s ./internal/scenario/

# Short fuzz runs for ci: enough to replay the checked-in corpus plus a
# few seconds of fresh inputs per target.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzAsmRoundTrip$$' -fuzztime 5s ./internal/asm/
	$(GO) test -run '^$$' -fuzz '^FuzzTransform$$' -fuzztime 5s ./internal/core/
	$(GO) test -run '^$$' -fuzz '^FuzzVariations$$' -fuzztime 5s ./internal/oracle/
	$(GO) test -run '^$$' -fuzz '^FuzzReplayRoundTrip$$' -fuzztime 5s ./internal/scenario/

# Doc lint: every internal package must open with a package comment that
# cross-links its DESIGN.md section, so the design doc and the code
# cannot drift apart silently.
doc-lint:
	@bad=""; for d in internal/*/; do \
		grep -l -r --include='*.go' -m1 '^// Package' $$d >/dev/null 2>&1 \
			|| bad="$$bad $$d(no package comment)"; \
		grep -r --include='*.go' -q 'DESIGN.md' $$d \
			|| bad="$$bad $$d(no DESIGN.md link)"; \
	done; if [ -n "$$bad" ]; then \
		echo "doc-lint: missing package docs:$$bad"; exit 1; fi

# Fusion floor for ci: BenchmarkFusedVsReference over three interleaved
# rounds fails if the median same-window fused/reference ratio drops
# below 1.0 — the fast path must never be slower than the reference
# dispatcher. (The fused tier's differential and edge-case tests run in
# race.)
fusion-smoke:
	$(GO) test -run '^$$' -bench '^BenchmarkFusedVsReference$$' -benchtime 3x .

# Scenario coverage floor for ci: record/replay is trusted exactly as
# far as its tests reach, so internal/scenario must keep >= 80%
# statement coverage. (Its sweep and tampering tests run in race.)
scenario-smoke:
	@cov=$$($(GO) test -cover ./internal/scenario/ | awk '{for(i=1;i<=NF;i++) if ($$i=="coverage:") print $$(i+1)}' | tr -d '%'); \
	if [ -z "$$cov" ]; then echo "scenario-smoke: no coverage reported"; exit 1; fi; \
	ok=$$(awk -v c="$$cov" 'BEGIN{print (c>=80.0)?1:0}'); \
	if [ "$$ok" != 1 ]; then \
		echo "scenario-smoke: internal/scenario coverage $$cov% below 80% floor"; exit 1; fi; \
	echo "scenario coverage $$cov% (floor 80%)"

# Full benchmark sweep (slow). BENCH_*.json snapshots in the repo root
# record curated before/after numbers from these benchmarks.
bench:
	$(GO) test -run '^$$' -bench . -benchmem ./...

# The interleaved fast-path/reference A/B comparison: the fusion-smoke
# benchmark over seven rounds, median same-window ratio reported as
# fused/ref (see BENCHMARKING.md for why separate-run numbers are not
# comparable on a shared host). BENCH_PR7.json is the historical record
# of an earlier three-way comparison; this target does not rewrite it.
bench-ab:
	$(GO) test -run '^$$' -bench '^BenchmarkFusedVsReference$$' -benchtime 7x .

# One iteration of every benchmark: a smoke test that the bench harness
# itself stays green, cheap enough for ci.
bench-short:
	$(GO) test -run '^$$' -bench . -benchtime 1x -count 1 ./...

# Full-scale regeneration of the recorded results (slow).
experiments:
	$(GO) run ./cmd/experiments -markdown -q -no-cache -o results_full.md

clean-cache:
	rm -rf "$${XDG_CACHE_HOME:-$$HOME/.cache}/instrsample/experiments"
