# Flick-Go build targets. `make ci` is the full gate: vet, build, the
# flick-lint ownership analyzers, race-enabled tests (which include the
# rt allocation guard and the corpus digests), rt once more under the
# portable bulk kernels, the benchmark module's own vet and self-tests,
# Table 1 with its ratchet, and the generated-stub and golden drift check.

GO ?= go

.PHONY: all build vet lint test test-race test-portable test-bench loc bench bench-rt bench-json generate generate-check stats ci

all: build

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# The pooled-buffer ownership analyzers (releasecheck, sendsafe,
# poolescape, arenalife) over every package. Also runnable through the go vet
# driver: go vet -vettool=$$(go env GOPATH)/bin/flick-lint ./...
lint:
	$(GO) run ./cmd/flick-lint ./...

test:
	$(GO) test ./...

# Includes what only a race build runs: rt poisons every receive buffer
# it recycles (rt/race_on.go), and TestRetainedViewReadsPoison asserts a
# handler that kept its aliased argument sees the poison.
test-race:
	$(GO) test -race ./...

# rt's bulk transfers have two builds (rt/bulk_fast.go, rt/bulk_portable.go);
# only the first is what a little-endian host compiles by default, so the
# per-element fallback is vetted and tested explicitly.
test-portable:
	$(GO) vet -tags flick_portable ./rt/
	$(GO) test -tags flick_portable ./rt/

# bench/ is a module of its own, outside ./... : vet it and run its
# self-tests (BENCHMARK.json matches the harness; a short run of all six
# workloads) from here.
test-bench:
	$(GO) vet -C bench .
	$(GO) test -C bench .

# Table 1 (code reuse per compiler phase; fails on a missing component
# path), then the ratchet beside it: no specialized component past its
# recorded ceiling.
loc:
	$(GO) run ./cmd/flick-loc
	$(GO) test -count=1 ./cmd/flick-loc

# Root-level benchmarks (the paper's tables/figures as testing.B).
bench:
	$(GO) test -bench=. -benchmem -run=^$$ .

# Runtime benchmarks, including the observability overhead pair
# (BenchmarkClientCall vs BenchmarkClientCallMetrics/Traced).
bench-rt:
	$(GO) test -bench=. -benchmem -run=^$$ ./rt

# The six runtime gates share one rule: `make <gate>` runs the gate's
# tests under -race and then its flick-bench sweep report(s);
# `make <gate> SHORT=1` — spelled `make <gate>-short`, which is what CI
# runs — passes -short (reduced soaks, same invariants) and skips the
# sweep, except where SHORT_REPORT_<gate> keeps a reduced report in CI.
# Run the full gate locally before touching the layer it guards.
#
#   chaos     fault-tolerance soak (10k calls; 1500 under -short) + fault-rate sweep
#   fleet     scale-out fabric: pool, batching, admission, 1k-100k client sweep
#             (the committed BENCH_fleet.json curve; slow)
#   trace     traced chaos soak (5% faults, 100% sampling: one well-formed span
#             tree per call, zero orphans, valid Chrome export), propagation,
#             and the alloc guard pinning the tracing-disabled path
#   stream    the three generated surfaces, credit-window invariants,
#             mid-transfer chaos soak, chunk x window sweep
#   zerocopy  alloc-guarded vectored round trips, arena soak, arenalife and
#             zerocopy strict corpus gates, the prover's negative tests; the
#             receive-buffer lease: refcount, wrapper matrix, arena ledger
#             soak, echoed views, and (race builds) the poisoned retained view
#   drain     deadlines, cancel frames, breaker half-open, hedging safety, the
#             rolling-restart drain soak (loss-free clean, classified-only at
#             5% faults); reports drain and hedge
GATES := chaos fleet trace stream zerocopy drain

RUN_chaos    := TestChaos|TestFault|TestChecksum|TestFailCloseRace
PKGS_chaos   := ./rt ./internal/experiment
REPORT_chaos := chaos

RUN_fleet          := TestFleet|TestPool|TestBatch|TestAdmission|TestChaosPooled
PKGS_fleet         := ./rt ./internal/experiment
REPORT_fleet       := fleet
SHORT_REPORT_fleet := fleet

RUN_trace    := TestTraceSoak|TestTracePropagates|TestTracingDisabledAllocs|TestDupCachedResend|TestPoolFailoverKeepsTrace
PKGS_trace   := ./rt ./internal/experiment
REPORT_trace := trace

RUN_stream    := TestStream|TestBlob|TestAsync|TestPromise
PKGS_stream   := ./rt ./internal/streamstubs ./internal/teststubs ./internal/experiment
REPORT_stream := stream

RUN_zerocopy    := TestZeroCopy|TestArenaLife|TestVerifyCorpusZeroCopy|TestLintCorpus|TestLease|TestBatchPartsRecycle|TestWrapperMatrix|TestEchoedView|TestArenaLedger|TestRetainedView|TestArena
PKGS_zerocopy   := ./rt ./internal/zcstubs ./internal/lint ./internal/verify .
REPORT_zerocopy := zerocopy

RUN_drain          := TestDeadline|TestExpired|TestClientMapsReplyExpired|TestCtx|TestDrain|TestGoAway|TestBreakerHalfOpen|TestDupCacheAcrossRedial|TestNonIdempotentNeverHedges|TestChaosDrain|TestHedgeTail
PKGS_drain         := ./rt ./internal/experiment
REPORT_drain       := drain hedge
SHORT_REPORT_drain := drain

SHORTFLAG := $(if $(SHORT),-short)

# One flick-bench report per line of the recipe (the blank line is the
# separator foreach needs).
define report
$(GO) run ./cmd/flick-bench -exp $(1) $(SHORTFLAG)

endef

.PHONY: $(GATES) $(GATES:%=%-short)

$(GATES): %:
	$(GO) test -race $(SHORTFLAG) -count=1 -run '$(RUN_$*)' $(PKGS_$*)
	$(foreach exp,$(if $(SHORT),$(SHORT_REPORT_$*),$(REPORT_$*)),$(call report,$(exp)))

$(GATES:%=%-short): %-short:
	$(MAKE) $* SHORT=1

# Regenerate the committed machine-readable benchmark curves.
bench-json:
	$(GO) run ./cmd/flick-bench -exp pipeline -json > BENCH_pipeline.json
	$(GO) run ./cmd/flick-bench -exp fleet -json > BENCH_fleet.json
	$(GO) run ./cmd/flick-bench -exp stream -json > BENCH_stream.json
	$(GO) run ./cmd/flick-bench -exp zerocopy -json > BENCH_zerocopy.json
	$(GO) run ./cmd/flick-bench -exp hedge -json > BENCH_hedge.json

# Every committed stub package (its gen.go lines) and both back ends'
# golden files. The corpus digests (testdata/corpus.sha256) are not
# regenerated here: they are the byte-identity reference refactors are
# held to, rewritten only on purpose with `go test . -run Corpus -update`.
generate:
	$(GO) generate ./...
	$(GO) test ./internal/backend/gostub ./internal/backend/cstub -run Golden -update

# Fail if regenerating the checked-in stubs or goldens changes anything:
# stale generated code must not land.
generate-check: generate
	git diff --exit-code

# The observability reports.
stats:
	$(GO) run ./cmd/flick-bench -exp checks
	$(GO) run ./cmd/flick-bench -exp rpcstats
	$(GO) run ./cmd/flick-bench -exp pipeline
	$(GO) run ./cmd/flick-stats -rounds 50

ci: vet build lint test-race test-portable test-bench loc generate-check
