# Tier-1 verification for this repository. `make ci` is what a change
# must keep green (see CONTRIBUTING.md).

GO ?= go

.PHONY: ci fmt vet vet-isampbench build test race bench bench-short bench-ab \
	experiments clean-cache fuzz fuzz-smoke mutation-check telemetry-smoke \
	service-smoke soak soak-smoke soak-fleet doc-lint fusion-smoke \
	scenario-smoke obs-smoke fleet-smoke

ci: fmt vet vet-isampbench doc-lint build test race fuzz-smoke mutation-check \
	telemetry-smoke service-smoke obs-smoke soak-smoke fusion-smoke \
	scenario-smoke fleet-smoke bench-short

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

# The experiment engine runs measurement cells on concurrent goroutines,
# the VM's differential tests run parallel subtests over the frame pools
# and scheduler, the oracle tests exercise the observer hooks from
# parallel seeds, the trigger tests drive fault-injected timers under
# threaded programs, the service daemon runs its queue/worker/SSE
# machinery against live HTTP clients, the scenario sweep records and
# replays generated programs in parallel, and the fleet coordinator
# dispatches, relays and cancels across workers; keep all seven
# race-clean.
race:
	$(GO) test -race ./internal/experiment/ ./internal/vm/ \
		./internal/oracle/ ./internal/trigger/ ./internal/service/ \
		./internal/scenario/ ./internal/fabric/

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

# Mutation test for the oracle itself: compile Partial-Duplication with a
# deliberately forgotten backedge mask (core.FaultSkipBackedgeMask) and
# require the oracle to flag the resulting Property-1 violation. Guards
# the guard: an oracle that stops observing fails this target. Fails
# unless go test succeeds and the PASS line appears.
mutation-check:
	@out=$$($(GO) test -run '^TestMutationKill$$' -v ./internal/oracle/) \
		|| { echo "$$out"; exit 1; }; \
	echo "$$out" | grep -q 'PASS: TestMutationKill' \
		|| { echo "mutation-check: TestMutationKill did not pass"; exit 1; }

# Telemetry smoke, two tests under -race. (1) Drive a small instrumented
# benchmark through the real isamp CLI path with -verify, -trace and
# -metrics attached, validating the Chrome trace-event JSON schema and
# the metrics CSV header; -race exercises the trace ring's atomic head
# publication. (2) The CLI-job parity gate: every variation x every job
# trigger (plus yieldopt, icache and verify legs) runs through isamp's
# run path and as a job on a live in-process service.Server, and both
# must report the same return, output, Stats, code sizes and profile
# entries; -race covers the daemon's queue, workers and SSE stream.
telemetry-smoke:
	@out=$$($(GO) test -race -run '^(TestTelemetrySmoke|TestCLIMatchesJob)$$' -v ./cmd/isamp/) \
		|| { echo "$$out"; exit 1; }; \
	for t in TestTelemetrySmoke TestCLIMatchesJob; do \
		echo "$$out" | grep -q "PASS: $$t" || { echo "telemetry-smoke: $$t did not pass"; exit 1; }; \
	done

# Daemon smoke: boot isampd on an ephemeral port under -race, submit a
# job over HTTP, stream its SSE events to completion, cancel a
# long-running job (must stop at the next observation point), validate
# the /metrics exposition format, and drain via the SIGTERM path. Fails
# unless go test succeeds and the PASS line appears.
service-smoke:
	@out=$$($(GO) test -race -run '^TestServiceSmoke$$' -v ./cmd/isampd/) \
		|| { echo "$$out"; exit 1; }; \
	echo "$$out" | grep -q 'PASS: TestServiceSmoke' \
		|| { echo "service-smoke: TestServiceSmoke did not pass"; exit 1; }

# Observability smoke for ci, two halves, both under -race. (1) The real
# daemon: boot isampd at -obs full with a trace directory, debug
# listener and structured logs, submit jobs over HTTP, and require the
# terminal ledger's stage rows to sum to total_ns exactly, the merged
# /trace document to parse as Chrome trace-event JSON, and pprof to
# answer. (2) In-process: the full-mode merged trace must carry
# cycle-aligned VM events inside the vm-run span, the ledger must equal
# the job's end-to-end extent, and the completed chain must be gap-free
# with zero ring drops. (3) The fleet: a coordinator job's /trace must
# parse as Chrome trace-event JSON with a dispatch span, its ledger must
# sum exactly to total_ns, and PUT /v1/obs must turn ledgers off. Each
# leg fails unless go test succeeds (and, for the daemon and fleet legs,
# the named test's PASS line appears).
obs-smoke:
	@out=$$($(GO) test -race -run '^TestDaemonObservability$$' -v ./cmd/isampd/) \
		|| { echo "$$out"; exit 1; }; \
	echo "$$out" | grep -q 'PASS: TestDaemonObservability' \
		|| { echo "obs-smoke: TestDaemonObservability did not pass"; exit 1; }
	$(GO) test -race -run '^(TestObsFullMergedTrace|TestObsLedgerSumEqualsJobLatency|TestObsChainCompleted)$$' \
		./internal/service/
	@out=$$($(GO) test -race -run '^TestFleetTraceAndLedger$$' -v ./internal/fabric/) \
		|| { echo "$$out"; exit 1; }; \
	echo "$$out" | grep -q 'PASS: TestFleetTraceAndLedger' \
		|| { echo "obs-smoke: TestFleetTraceAndLedger did not pass"; exit 1; }

# Sustained soak: a 30-second seeded mixed-traffic run against a
# self-hosted daemon, gates asserted in code, BENCH_PR6.json emitted by
# the harness itself (see BENCHMARKING.md). Deterministic plan: the same
# seed+mix replays the same job sequence, and the report records its
# SHA-256.
soak:
	$(GO) run ./cmd/isampload -duration 30s -o BENCH_PR6.json

# Soak smoke for ci: a few-second seeded soak on an ephemeral port under
# -race with the regression gates enforced — exact gates (zero failed
# jobs, zero leaked goroutines, zero transport errors) at full strength,
# timing ceilings relaxed for shared hosts. A deliberately small queue
# forces the 429-retry path to run. Fails unless go test succeeds and the
# PASS line appears.
soak-smoke:
	@out=$$($(GO) test -race -run '^TestSoakSmoke$$' -v ./cmd/isampload/) \
		|| { echo "$$out"; exit 1; }; \
	echo "$$out" | grep -q 'PASS: TestSoakSmoke' \
		|| { echo "soak-smoke: TestSoakSmoke did not pass"; exit 1; }

# Fleet smoke for ci: the real isampfleet entrypoint (config file, flags,
# SIGHUP reload) coordinating three in-process isampd workers on
# ephemeral ports, under -race: a mixed batch with duplicates, one worker
# killed mid-job (its cell requeues on a survivor, then the topology
# drops it via SIGHUP), every job terminal, zero lost cells, and a
# byte-identical CAS hit on resubmission. Fails unless go test succeeds
# and the PASS line appears.
fleet-smoke:
	@out=$$($(GO) test -race -run '^TestFleetSmoke$$' -v ./cmd/isampfleet/) \
		|| { echo "$$out"; exit 1; }; \
	echo "$$out" | grep -q 'PASS: TestFleetSmoke' \
		|| { echo "fleet-smoke: TestFleetSmoke did not pass"; exit 1; }

# Fleet soak (not in ci — see BENCHMARKING.md on this host's core count):
# the self-hosted scaling A/B behind BENCH_PR10.json — the same seeded
# soak against 1-worker and 4-worker self-hosted fleets, plus a
# worker-kill recovery leg.
soak-fleet:
	$(GO) run ./cmd/isampload -fleet-ab -workers 4 -duration 20s -pr 10 \
		-title "Fleet scaling A/B: isampfleet coordinator over 1 vs 4 isampd workers" \
		-o BENCH_PR10.json

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

# Fusion smoke for ci, two halves. (1) Correctness: the seeded
# differential sweep (one variant per fused framework token), the
# call-boundary sweep (generated programs aimed at fused calls and
# returns: calls mid-block, every virtual override, null receivers and
# missing methods, traps right after a call or a return, yields inside
# callees at quantum 1, overflow from a fused call, a scaled callee, an
# unfused block between fused callers; six variations x two triggers x
# three observers, fused against the reference) plus every fused-block
# edge-case test (trap inside a superinstruction or right after a
# probe, cancellation/quantum mid-pair, fused checks firing on every
# poll or on a timer with exact poll and probe contexts, the
# operand-overflow fallback to per-instruction dispatch, observer
# degradation, sparse observers kept fused with exact yield wakes and
# episode boundaries, coverage floors for plain, instrumented and
# call-heavy code) under -race. (2) Performance floor:
# BenchmarkFusedVsReference over three interleaved rounds fails if the
# median same-window fused/reference ratio drops below 1.0 — the fast
# path must never be slower than the reference dispatcher.
fusion-smoke:
	$(GO) test -race -run '^(TestFusionDifferentialSweep|TestCallBoundarySweep|TestFused|TestFuseBlockOperandOverflow|TestAllEventsObserverDisablesFusion|TestSparseObserverKeepsFusion)' \
		./internal/vm/
	$(GO) test -run '^$$' -bench '^BenchmarkFusedVsReference$$' -benchtime 3x .

# Scenario smoke for ci, two halves. (1) The seeded workload-family
# sweep — generated programs recorded on the fast dispatcher, replayed
# bit-identically on both, every run under the oracle — plus the
# tampering detector, under -race. (2) A coverage floor on the new
# package: record/replay is trusted exactly as far as its tests reach,
# so the scenario package must keep >= 80% statement coverage.
scenario-smoke:
	$(GO) test -race -run '^(TestSweepProperty|TestRecordReplayDifferential|TestReplayDetectsTampering)$$' \
		./internal/scenario/
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
