GO ?= go

.PHONY: build test race vet fmt-check check skips walks handoff loc mutants reach figs fuzz bench perfgate baseline benchkern baseline-kern scale stream stream-smoke bench-data bench-compare

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
# either kernel, or one scan, is a second copy of a walk. Likewise the
# fork between data and cost-only worlds: a kernel runs and is charged in
# mpi.Ctx.Kernel, and a payload a cost-only world never builds is a sized
# nil Send. The HasData() checks left outside internal/mpi validate or
# require data, materialize an input, or prepare a collective's
# contribution that is charged after it (DESIGN.md, cost-only row); one
# more, or any call of the charge, byte-send and kernel-timer entries
# that Kernel and the sized Send replaced, is a second copy.
walks:
	@src="$$(ls internal/core/*.go | grep -v _test.go)"; \
	for k in StackQR:0 StackQRInPlace:1 ApplyStackQ:2; do \
		n="$$(grep -ho "lapack\.$${k%:*}(" $$src | wc -l)"; \
		echo "lapack.$${k%:*}( call sites in internal/core: $$n (max $${k#*:})"; \
		[ "$$n" -le "$${k#*:}" ] || exit 1; \
	done; \
	n="$$(grep -hoE 'case m\.(dst|src)|== m\.dst' $$src | wc -l)"; \
	echo "hand-written schedule scans in internal/core: $$n (max 0)"; \
	[ "$$n" -eq 0 ] || exit 1; \
	n="$$(grep -rn 'HasData()' internal --include=*.go --exclude=*_test.go | grep -v internal/mpi | wc -l)"; \
	echo "HasData() checks outside internal/mpi: $$n (max 23)"; \
	[ "$$n" -le 23 ] || exit 1; \
	n="$$(grep -rnE 'SendBytes\(|ChargeKernel\(|\.Charge\(|TimeKernel\(' --include=*.go --exclude=*_test.go --exclude-dir=.bench_build . | wc -l)"; \
	echo "SendBytes/ChargeKernel/Charge/TimeKernel calls outside tests: $$n (max 0)"; \
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

# Every pinned invariant is shown to fire: each testdata/mutants/*.patch
# breaks one invariant on purpose, and its header names the tests that
# pin it ("Tests: <package> <Test>..." lines). The target applies each
# patch to a scratch copy of the tree and runs those tests; a mutant
# they all pass has survived, and the target fails. A survivor calls
# for a stronger test, never an edited mutant. Nightly, not in check.
MUTANTS ?= $(wildcard testdata/mutants/*.patch)

mutants:
	@tmp="$$(mktemp -d)"; trap 'rm -rf "$$tmp"' EXIT; survived=0; \
	for m in $(MUTANTS); do \
		rm -rf "$$tmp/src" && mkdir "$$tmp/src" && \
		tar --exclude=./.git --exclude=./.bench_build -cf - . | tar -xf - -C "$$tmp/src" && \
		(cd "$$tmp/src" && git apply "$(CURDIR)/$$m") || exit 1; \
		killers="$$(sed -n 's/^Tests: //p' "$$m" | while read -r pkg tests; do \
			out="$$(cd "$$tmp/src" && $(GO) test -count=1 -timeout 120s -v \
				-run "^($$(echo $$tests | tr ' ' '|'))$$" "$$pkg" 2>&1)" && continue; \
			names="$$(echo "$$out" | sed -n 's/^--- FAIL: \([^ ]*\).*/\1/p' | tr '\n' ' ')"; \
			echo "$${names:-$$pkg (crashed or timed out)}"; \
		done)"; \
		if [ -n "$$killers" ]; then echo "killed   $$m by" $$killers; \
		else echo "SURVIVED $$m"; survived=1; fi; \
	done; exit $$survived

# Reachability ledger: what the shipped entry points run. Every main
# (cmd/*, examples/*, benchmarks) is built with coverage of the whole
# module and driven through the invocation list below; the merged
# coverage becomes results/REACH.txt, one sorted "file func
# reached|unreached" line per function (a name that occurs twice in one
# file is unreached if either is). The target fails when a function
# under internal/ went unreached and testdata/reach_allow.txt does not
# list it as "file func # reason", when a listed line has no reason, or
# when a listed function no longer exists. A package that no main links
# has no coverage at all, so the internal/ packages with non-test Go
# files are checked against REACH.txt too: one that is missing fails
# unless the allowlist names it whole ("dir * # reason"). A listed
# function that ran passes: the Go mirrors of the assembly run only
# where the host lacks the kernels. kernbench runs with a loose -tol
# because coverage counters slow the kernels; `make benchkern` is the
# timing gate. Nightly, not in check (about five minutes).

reach:
	@tmp="$$(mktemp -d)"; trap 'rm -rf "$$tmp"' EXIT; mkdir "$$tmp/bin" "$$tmp/cov"; \
	for d in cmd/* examples/* benchmarks; do \
		$(GO) build -cover -coverpkg=./... -o "$$tmp/bin/$$(echo $$d | tr / _)" ./$$d || exit 1; \
	done; \
	run() { echo "reach: $$*"; GOCOVERDIR="$$tmp/cov" "$$tmp/bin/$$@" > "$$tmp/log" 2>&1 \
		|| { cat "$$tmp/log"; echo "reach: $$* failed"; exit 1; }; }; \
	for e in examples/*; do run "examples_$${e#examples/}"; done; \
	run cmd_tsqr; \
	run cmd_tsqr -q -tree binary -domains 2; \
	for a in cholqr tslu lstsq; do run cmd_tsqr -algo $$a -baseline; done; \
	run cmd_tsqr -m 20000 -n 128 -clusters 1 -procs 2; \
	run cmd_tsqr -m 4000 -n 8 -out "$$tmp/r.mtx"; \
	run cmd_tsqr -in "$$tmp/r.mtx" -clusters 1 -procs 1; \
	printf '%%%%MatrixMarket matrix coordinate real general\n3 2 3\n1 1 2\n2 2 3\n3 1 1\n' > "$$tmp/c.mtx"; \
	run cmd_tsqr -in "$$tmp/c.mtx" -clusters 1 -procs 1; \
	run cmd_perfmodel; \
	run cmd_gridbench -quick -fig all; \
	run cmd_gridbench -quick -serve -listen 127.0.0.1:0; \
	for a in poisson bursty diurnal; do run cmd_gridbench -quick -load -arrival $$a; done; \
	run cmd_gridbench -quick -stream; \
	run cmd_gridbench -metrics; \
	run cmd_gridbench -trace "$$tmp/trace.json"; \
	run cmd_gridbench -scale; \
	run cmd_gridbench -scale -ranks 1024 -tree multi-level; \
	printf '%s\n' '{"clusters": [' \
		'{"name": "a", "nodes": 2, "procsPerNode": 2, "gflops": 3, "latencyMs": 0.05, "mbps": 900},' \
		'{"name": "b", "nodes": 2, "procsPerNode": 2, "gflops": 2, "latencyMs": 0.06, "mbps": 800}],' \
		'"links": [{"from": "a", "to": "b", "latencyMs": 8, "mbps": 100}]}' > "$$tmp/platform.json"; \
	run cmd_gridbench -quick -fig 4 -platform "$$tmp/platform.json" -csv "$$tmp"; \
	run cmd_gridbench -baseline $(BASELINE) -scale-max-ranks 1024; \
	run cmd_gridbench -json "$$tmp/report.json" -ranks 1024; \
	run cmd_kernbench -procs 1 -baseline $(KERNBASE) -tol 100; \
	run benchmarks -workload all -seed 1 -smoke -seconds 1 -trace 1 -out "$$tmp/bench"; \
	mod="$$($(GO) list -m)/"; \
	$(GO) tool covdata func -i "$$tmp/cov" | \
		awk -v mod="$$mod" '$$1 != "total" { f = substr($$1, length(mod) + 1); sub(/:[0-9]+:$$/, "", f); \
			k = f " " $$2; if (!(k in st)) st[k] = "reached"; if ($$NF == "0.0%") st[k] = "unreached" } \
			END { for (k in st) print k, st[k] }' | LC_ALL=C sort > results/REACH.txt || exit 1; \
	$(GO) list -f '{{if .GoFiles}}{{.ImportPath}}{{end}}' ./internal/... | sed "s|^$$mod||" > "$$tmp/pkgs" || exit 1; \
	awk -v allow=testdata/reach_allow.txt -v pkgs="$$tmp/pkgs" ' \
		BEGIN { while ((getline line < allow) > 0) { \
			if (line ~ /^[ \t]*(#|$$)/) continue; \
			h = index(line, "#"); why = h ? substr(line, h + 1) : ""; gsub(/^[ \t]+|[ \t]+$$/, "", why); \
			if (split(h ? substr(line, 1, h - 1) : line, f) != 2 || why == "") { \
				print "reach: allowlist line needs \"file func # reason\": " line; bad = 1; continue } \
			if (f[2] == "*") whole[f[1]] = 1; else ok[f[1] " " f[2]] = 1 } \
			while ((getline p < pkgs) > 0) pkg[p] = 1 } \
		{ seen[$$1 " " $$2] = 1; d = $$1; sub(/\/[^\/]*$$/, "", d); linked[d] = 1 } \
		$$1 ~ /^internal\// { n[$$3]++ } \
		$$3 == "unreached" && $$1 ~ /^internal\// && !(($$1 " " $$2) in ok) { \
			print "reach: unreached and not allowlisted: " $$1 " " $$2; bad = 1 } \
		END { for (k in ok) if (!(k in seen)) { print "reach: allowlisted but gone: " k; bad = 1 } \
			for (p in whole) if (!(p in pkg)) { print "reach: allowlisted but gone: " p " *"; bad = 1 } \
			for (p in pkg) if (!(p in linked)) { \
				if (p in whole) unlinked++; else { print "reach: package no main links, not allowlisted: " p; bad = 1 } } \
			printf "reach: %d of %d functions under internal/ unreached, in the packages a main links (%d allowlisted package(s) no main links)\n", \
				n["unreached"], n["reached"] + n["unreached"], unlinked; \
			exit bad }' results/REACH.txt

# The committed figures: every table and figure of gridbench -fig all
# (virtual clocks and seeded fault plans, no wall clock) must reproduce
# results/gridbench_all.txt byte for byte; the target prints the diff
# and fails on any change. Nightly, not in check (about a minute).
figs:
	@tmp="$$(mktemp)"; trap 'rm -f "$$tmp"' EXIT; \
	$(GO) run ./cmd/gridbench -fig all > "$$tmp" || exit 1; \
	diff -u results/gridbench_all.txt "$$tmp" || { echo "figs: gridbench -fig all differs from results/gridbench_all.txt"; exit 1; }; \
	echo "figs: gridbench -fig all matches results/gridbench_all.txt"

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
	$(GO) test -count=1 -run 'TestStreamIncrementalMatchesOneShot|TestStreamSnapshotExactCounts|TestRoundIncrementalEqualsOneShot|TestFolderGranularityInvariance|TestLeafEqualsFolder|TestShardIngestEqualsPush' ./internal/sched ./internal/stream

# Regenerate the committed baseline after an intentional change to the
# algorithms' communication or computation structure.
baseline:
	$(GO) run ./cmd/gridbench -json $(BASELINE)

# Each fuzz target for FUZZTIME; the nightly job runs this list.
FUZZTIME ?= 15s

fuzz:
	$(GO) test -fuzz=FuzzHouseholderQR -fuzztime=$(FUZZTIME) ./internal/lapack
	$(GO) test -fuzz=FuzzDtpqrt2 -fuzztime=$(FUZZTIME) ./internal/lapack
	$(GO) test -fuzz=FuzzAdmission -fuzztime=$(FUZZTIME) ./internal/sched
	$(GO) test -fuzz=FuzzDgemm -fuzztime=$(FUZZTIME) ./internal/blas
	$(GO) test -fuzz=FuzzDgemv -fuzztime=$(FUZZTIME) ./internal/blas
	$(GO) test -fuzz=FuzzDger -fuzztime=$(FUZZTIME) ./internal/blas
	$(GO) test -fuzz=FuzzDtrsm -fuzztime=$(FUZZTIME) ./internal/blas
	$(GO) test -fuzz=FuzzIncrementalFold -fuzztime=$(FUZZTIME) ./internal/stream
	$(GO) test -fuzz=FuzzFillRandomRows -fuzztime=$(FUZZTIME) ./internal/matrix

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
BENCH_OLD ?= results/BENCH_51_parent.json
BENCH_NEW ?= results/BENCH_51.json

bench-compare:
	$(GO) run ./benchmarks -compare $(BENCH_OLD) $(BENCH_NEW)
