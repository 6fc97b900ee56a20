GO ?= go

# MODES are the misobench extension modes, each runnable at small scale
# as `make <mode>`; CI runs the same modes by name.
MODES := chaos crash serve benchexec benchgov scenarios cache endurance

.PHONY: tier1 build vet test race bench soak govern lint $(MODES)

# tier1 is the gate every change must pass: gofmt-clean sources, clean
# build, vet, the full test suite under the race detector, and explicit
# runs of the concurrent-serving soak, the crash-recovery regression, the
# parallel-tuning determinism and concurrent what-if costing regressions,
# the morsel-engine determinism regressions, the governance regressions
# (cancellation storm, panic isolation), and the overload-plane
# regressions (hedge digest identity, breaker half-open contention,
# quota fairness, pool storm, retry budgets), and the integrity-plane
# regressions (self-healing repair, quarantine tombstones, audit
# byte-identity, scrub-during-reorganize, scrub-during-recovery), and
# the reuse-plane regressions (cache-hit digest identity, invalidation
# edges, piggybacking), the idle-plane byte-identity table (hedge,
# audit, reuse and governance switched on but idle), and the per-variant
# golden StateDigest table — all race-enabled.
tier1:
	test -z "$$(gofmt -l .)" || { gofmt -l .; exit 1; }
	$(GO) build ./...
	$(GO) vet ./...
	$(GO) test -race ./...
	$(GO) test -race -run 'TestServeSoak|TestServeMatchesSequentialRun|TestConcurrentWhatIfCostingDuringSoak|TestCancelFreesWorkersWithinBound|TestWorkerPanicIsolation|TestMetricsGovernanceCounters' -count 1 ./internal/serve/
	$(GO) test -race -run 'TestBreakerHalfOpenContention|TestQuotaWeightedFairness|TestQuotaShedsAreTenantScoped|TestAdaptiveLimiter|TestOverloadPlaneDisabledIsNoOp' -count 1 ./internal/serve/
	$(GO) test -race -run 'TestRecoverPerCrashSite|TestCleanShutdownByteIdentity|TestServeResumesOnRecoveredSystem|TestStateDigestIdenticalAcrossTuneWorkers|TestStateDigestIdenticalAcrossExecWorkers' -count 1 ./internal/multistore/
	$(GO) test -race -run 'TestHedgeDigestIdentity|TestIdlePlanesByteIdentical|TestRetryBudgetCapsRecovery|TestStateDigestGolden' -count 1 ./internal/multistore/
	$(GO) test -race -run 'TestAuditRepairsCorruptView|TestQuarantineTombstoneBlocksCapture|TestEvictThenQuarantineNoLRURetention' -count 1 ./internal/multistore/
	$(GO) test -race -run 'TestScrubDuringReorganize|TestScrubDuringRecovery|TestBackgroundScrubberUnderLoad' -count 1 ./internal/audit/
	$(GO) test -race -run 'TestReuse' -count 1 ./internal/multistore/
	$(GO) test -race -run 'TestPlanHashZeroAlloc|TestFlightPiggyback|TestCacheHitMissAndDigestVerify' -count 1 ./internal/mqo/
	$(GO) test -race -run 'TestPoolStorm' -count 1 ./internal/govern/
	$(GO) test -race -run 'TestTuneDeterministicAcrossWorkerCounts' -count 1 ./internal/core/
	$(GO) test -race -run 'TestMorselEngineByteIdenticalToSerial|TestMorselEngineFullWorkloadDigest|TestSortFullRowTieBreak' -count 1 ./internal/exec/

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# bench runs the reproducible benchmark pipelines — the exec pipeline
# (morsel engine vs the legacy serial engine, per operator and
# end-to-end, digest-checked, with the columnar speedup gate) and the
# governance pipeline — writing their reports (BENCH_exec.json,
# BENCH_governance.json), then the package micro-benchmarks.
bench:
	$(GO) run ./cmd/misobench -mode benchexec,benchgov -scale small
	$(GO) test -bench . -benchtime 1x -run '^$$' ./internal/multistore/

# Each mode target runs one misobench mode at small scale: it prints the
# result, writes the mode's artifact (if any) and exits nonzero when a
# declared check fails. See `go run ./cmd/misobench -modes`.
$(MODES):
	$(GO) run ./cmd/misobench -mode $@ -scale small

govern: benchgov

soak:
	$(GO) test -race -run 'TestServeSoak' -count 1 -v ./internal/serve/

# lint runs the static analyzers when they are installed; it skips them
# with a note otherwise so offline checkouts still build.
lint:
	@if command -v staticcheck >/dev/null 2>&1; then staticcheck ./...; else echo "staticcheck not installed; skipping"; fi
	@if command -v govulncheck >/dev/null 2>&1; then govulncheck ./...; else echo "govulncheck not installed; skipping"; fi
