GO ?= go

.PHONY: build test race vet fmt-check check skips walks handoff loc fuzz bench perfgate baseline benchkern baseline-kern scale stream stream-smoke bench-data bench-compare

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The runtime (incl. fault injection) and the event engine's coroutine
# scheduler, the TSQR/FT-TSQR paths, the lookahead ScaLAPACK variant, the lock-free
# telemetry registry, the concurrent job scheduler and the packed GEMM
# engine's worker pool must be race-clean; short mode keeps this fast
# enough for every commit.
race:
	$(GO) test -race -short ./internal/mpi ./internal/simnet ./internal/core ./internal/scalapack ./internal/telemetry ./internal/sched ./internal/blas ./internal/elastic ./internal/monitor ./internal/stream

vet:
	$(GO) vet ./...

fmt-check:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

check: build vet fmt-check test skips walks race handoff bench-data

# A test that skips itself checks nothing: the runtime, algorithm and
# serving packages must run every test they have (-count=1 defeats the
# cache). blas.TestTuneSweep is flag-gated and outside the set.
skips:
	@out="$$($(GO) test -count=1 -v ./internal/mpi ./internal/core ./internal/sched ./internal/stream ./internal/elastic 2>&1)" \
		|| { echo "$$out" | grep -v -e '^=== ' -e '--- PASS'; exit 1; }; \
	if echo "$$out" | grep -e '--- SKIP'; then echo "skips: the tests above skipped themselves"; exit 1; fi

# One concept, one implementation: internal/core merges two triangles in
# TSQR's operator (tsqr.go, which FT-TSQR's combine calls) — in place,
# never through the cloning lapack.StackQR — applies a merge's Q in the
# tree-Q walk's scatter and round trip (treeq.go), and walks a schedule in
# reduction.run alone — no rank picks its merges out of a schedule by hand
# (stepsFor and the compiled per-domain slices do). One call site more of
# either kernel, or one scan, is a second copy of a walk.
walks:
	@src="$$(ls internal/core/*.go | grep -v _test.go)"; \
	for k in StackQR:0 StackQRInPlace:1 ApplyStackQ:2; do \
		n="$$(grep -ho "lapack\.$${k%:*}(" $$src | wc -l)"; \
		echo "lapack.$${k%:*}( call sites in internal/core: $$n (max $${k#*:})"; \
		[ "$$n" -le "$${k#*:}" ] || exit 1; \
	done; \
	n="$$(grep -hoE 'case m\.(dst|src)|== m\.dst' $$src | wc -l)"; \
	echo "hand-written schedule scans in internal/core: $$n (max 0)"; \
	[ "$$n" -eq 0 ]

# The event scheduler's dispatch+park micro-benchmark, as a smoke: it
# must build and run (EXPERIMENTS.md has its figures).
handoff:
	$(GO) test -run '^$$' -bench DispatchPark -benchtime 100x ./internal/simnet

# Non-test Go lines per package — the numbers ROADMAP.md and CHANGES.md
# quote.
loc:
	@find . -name '*.go' ! -name '*_test.go' ! -path './.bench_build/*' -print0 | xargs -0 wc -l | \
		awk '$$2 != "total" { d = $$2; sub(/\/[^\/]*$$/, "", d); n[d] += $$1; t += $$1 } \
			END { for (d in n) printf "%6d %s\n", n[d], d; printf "%6d total\n", t }' | sort -k2

# Perf-regression gate: re-run the standard benchmark set and fail on
# any drift from the committed baseline (message/flop counts exact,
# bytes and simulated seconds within tight relative tolerance). The
# committed scale sweep is gated up to SCALE_MAX_RANKS ranks; the
# nightly job sets 0 to re-run the full 32k sweep.
BASELINE ?= results/BENCH_10.json
SCALE_MAX_RANKS ?= 4096

perfgate:
	$(GO) run ./cmd/gridbench -baseline $(BASELINE) -scale-max-ranks $(SCALE_MAX_RANKS)

# Cost-only scale smoke: the 4k-rank event-engine sweep plus the scale
# test suite, the same check the CI `scale` job runs under a wall-clock
# budget (see .github/workflows/ci.yml).
scale:
	$(GO) run ./cmd/gridbench -scale -ranks 4096
	$(GO) test -run 'TestScale' -v ./internal/bench

# Open-loop streaming-ingest study: the full ingest-rate ladder with
# snapshot barriers on schedule (the EXPERIMENTS.md table).
stream:
	$(GO) run ./cmd/gridbench -stream

# Bounded ingest plus the snapshot-equivalence tests — the CI `stream`
# job. -count=1 defeats the test cache so the bitwise fold-vs-one-shot
# contract genuinely re-executes.
stream-smoke:
	$(GO) run ./cmd/gridbench -stream -quick
	$(GO) test -count=1 -run 'TestStreamIncrementalMatchesOneShot|TestStreamSnapshotExactCounts|TestRoundIncrementalEqualsOneShot|TestFolderGranularityInvariance|TestOutOfCoreBitwise|TestLeafEqualsFolder|TestShardIngestEqualsPush' ./internal/sched ./internal/stream

# Regenerate the committed baseline after an intentional change to the
# algorithms' communication or computation structure.
baseline:
	$(GO) run ./cmd/gridbench -json $(BASELINE)

fuzz:
	$(GO) test -fuzz=FuzzHouseholderQR -fuzztime=15s ./internal/lapack
	$(GO) test -fuzz=FuzzDtpqrt2 -fuzztime=15s ./internal/lapack
	$(GO) test -fuzz=FuzzAdmission -fuzztime=15s ./internal/sched
	$(GO) test -fuzz=FuzzDgemm -fuzztime=15s ./internal/blas
	$(GO) test -fuzz=FuzzDgemv -fuzztime=15s ./internal/blas
	$(GO) test -fuzz=FuzzDger -fuzztime=15s ./internal/blas
	$(GO) test -fuzz=FuzzDtrsm -fuzztime=15s ./internal/blas
	$(GO) test -fuzz=FuzzTraceReplay -fuzztime=15s ./internal/elastic
	$(GO) test -fuzz=FuzzIncrementalFold -fuzztime=15s ./internal/stream
	$(GO) test -fuzz=FuzzFillRandomRows -fuzztime=15s ./internal/matrix

bench:
	$(GO) test -bench=. -benchmem ./...

# Wall-clock kernel gate: re-time the BLAS/LAPACK kernel set at a pinned
# GOMAXPROCS and fail only on a >30% slowdown against the committed
# results/KERNBENCH.json — loose enough for runner noise, tight enough
# to catch a fall off the packed-GEMM fast path.
KERNBASE ?= results/KERNBENCH.json

benchkern:
	$(GO) run ./cmd/kernbench -procs 1 -baseline $(KERNBASE)

# Refresh the committed kernel baseline after an intentional kernel
# change (run on a quiet machine).
baseline-kern:
	$(GO) run ./cmd/kernbench -procs 1 -json $(KERNBASE)

# Data-path benchmark smoke: every workload of BENCHMARK.json on tiny
# shapes in 1 s windows, with all of its in-harness verification on (R
# against the sequential reference, QR residual and orthogonality,
# bitwise-equal repeat ops, exact message counts). It measures nothing —
# it catches a change that breaks what the benchmark drives.
bench-data:
	$(GO) run ./benchmarks -workload all -seed 1 -smoke -seconds 1

# The latest claimed speedup as a diff between two committed documents
# (ten alternating parent/change pairs on the host named in each file's
# fingerprint); a later PR points these at its own pair.
BENCH_OLD ?= results/BENCH_37_parent.json
BENCH_NEW ?= results/BENCH_37.json

bench-compare:
	$(GO) run ./benchmarks -compare $(BENCH_OLD) $(BENCH_NEW)
