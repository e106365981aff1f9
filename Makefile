# Convenience targets; everything is plain `go` underneath.

GO ?= go

.PHONY: all build test vet fmt lint race crashtest bench bench-smoke figures fuzz differential tenants-smoke replica-smoke serve-smoke clean

all: build test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Fails when any file needs gofmt (the CI gate).
fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# midas-lint: the project's own analyzers (docs/STATIC_ANALYSIS.md).
# Exits non-zero on any finding not covered by .midas-lint-allow, and
# (-strict) on any allowlist entry that no longer matches a finding —
# stale suppressions rot silently otherwise.
lint:
	$(GO) run ./cmd/midas-lint -strict ./...

test: vet
	$(GO) test ./...

# The CI gate: everything test runs, under the race detector. The
# timeout covers the experiments package, which outlasts Go's default
# 600s per-package limit under the detector's slowdown.
race:
	$(GO) test -race -timeout 1800s ./...

# Exhaustive crash-consistency model check: every crash point of every
# storage workload, friendly and lossy, with every torn length of a
# final write (docs/EXPERIMENTS.md). `go test -short` runs the same
# sweep with crash points and tear lengths sampled.
crashtest:
	$(GO) test -race -v -run 'TestCrashSweep' ./internal/store/crashtest/

# One testing.B benchmark per paper figure + ablations.
bench:
	$(GO) test -bench=. -benchmem

# Compile and run every benchmark exactly once (the CI smoke).
bench-smoke:
	$(GO) test -run=NONE -bench=. -benchtime=1x ./...

# Full paper-style tables (about 15 minutes at the small scale).
figures:
	$(GO) run ./cmd/midas-bench -scale small

# FuzzLoadState's inputs are whole state bundles (kilobytes): its
# minimisation of each new input is capped, or it takes the whole run.
fuzz:
	$(GO) test ./graph -fuzz FuzzRead -fuzztime 30s
	$(GO) test ./graph -fuzz FuzzJSON -fuzztime 30s
	$(GO) test ./internal/index -fuzz FuzzIndexMaintenance -fuzztime 30s
	$(GO) test ./internal/iso -fuzz FuzzMCCS -fuzztime 30s
	$(GO) test ./internal/ged -fuzz FuzzExactGED -fuzztime 30s
	$(GO) test . -run FuzzLoadState -fuzz FuzzLoadState -fuzztime 30s -fuzzminimizetime 2s

# The sequential/parallel differential suite, the index oracle suite,
# the exact-restore oracle and the check that Div's distance cache never
# changes a result, at a pinned GOMAXPROCS, the MCCS kernel
# against its map-based reference search, the exact GED search
# (distance, edit path and beam) against its string-based reference,
# plus the race detector over every parallelized package (the CI gate
# for the determinism contract).
differential:
	GOMAXPROCS=2 $(GO) test -run 'Differential|ByteIdentical|MidFanOut|AsyncCancel|UnderMaintenance|FuzzIndexMaintenance|RestoreIsTransparent|DivIndependentOfCache' . ./internal/core ./internal/cluster ./internal/index ./internal/catapult
	$(GO) test -run 'MCCSMatchesReference|FuzzMCCS' ./internal/iso
	$(GO) test -run 'ExactMatchesReference|ExactWithMappingMatchesReference|BeamMatchesReference|FuzzExactGED' ./internal/ged
	$(GO) test -race -count=2 ./internal/cluster ./internal/iso ./internal/ged ./internal/parallel ./internal/index/...

# The CI gate for the tenant subsystem: boot 3 tenants behind one
# router, maintain one, query all, assert isolation headers and that
# only the maintained tenant's generation moves — under -race.
tenants-smoke:
	$(GO) test -race -run 'TestTenantsSmoke' -v ./internal/tenant/

# The CI gate for the replication subsystem: primary + follower over
# real HTTP, writes replicate, follower reads carry the replica
# headers, promotion fences the old primary; then replicated
# midas-serve as two processes (primary + pull-only follower, one
# write, byte-identical panels, a fenced follower write, SIGTERM exit
# 0, follower restart) — under -race.
replica-smoke:
	$(GO) test -race -run 'TestSmokeFailoverHTTP' -v ./internal/replica/
	$(GO) test -race -run 'TestReplicaServeSmoke' -v ./cmd/midas-serve/

# The CI gate for single-tenant serving as a process: boot midas-serve
# with -db -save -watch, apply one HTTP and one spool batch, SIGTERM it
# (exit 0), restart from -state and require a byte-identical panel —
# under -race.
serve-smoke:
	$(GO) test -race -run 'TestServeSmoke' -v ./cmd/midas-serve/

clean:
	$(GO) clean ./...
