# Mirrors .github/workflows/ci.yml so local and CI invocations cannot drift:
# `make lint build test world-identity` runs the test job's Go gates, and CI
# calls bench-smoke, bench-allocs, perfbench-smoke, cover and fuzz-smoke
# itself.

GO ?= go

# Minimum total test coverage (%) enforced by `make cover` and CI. Raising
# it: run `make cover`, note the "total:" line, and bump the floor to about
# one point below the new total so unrelated refactors don't flap the gate.
# Never lower it to make a PR pass — add tests instead.
COVERAGE_FLOOR ?= 74.7

.PHONY: all build test world-identity bench bench-smoke bench-allocs bench-audience bench-uniqueness bench-serving perfbench-smoke cover fuzz-smoke lint fmt clean

all: lint build test

build:
	$(GO) build ./...

test:
	$(GO) test -race ./...

# World construction runs in blocks on GOMAXPROCS goroutines (the catalog's
# quantile transform, the model's computed share-table span and per-interest
# rates, its count tables), so these gates run at 1, 2 and 4 of them (CI
# runs this target): the catalog, model and panel digests pinned at seeds 1
# and 42; every rate from the bracketed span, compiled or computed, equal to
# the full 1,600-point table's bit for bit; and the catalog equal to a
# per-interest Sample loop's, stream position included.
world-identity:
	$(GO) test -race -run '^TestWorldBuildIsByteIdentical$$' -cpu 1,2,4 .
	$(GO) test -race -run '^TestCalibrationMatchesFullShareTable$$' -cpu 1,2,4 ./internal/population
	$(GO) test -race -run '^TestGenerateMatchesSequentialSample$$' -cpu 1,2,4 ./internal/interest

# Full benchmark sweep (minutes); bench-smoke is the 1-iteration variant CI
# runs (into bench-smoke.txt, which its speedup and latency gates read).
bench:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./...

bench-smoke:
	$(GO) test -run '^$$' -bench 'Figure1$$|Figure3$$|Table1$$|AblationParallelism|Audience|UniquenessEstimate|BootstrapResample|ProxyDownReplicaSkipped|BuildCatalog|BuildModel|NewWorld' -benchtime 1x -benchmem . ./internal/core ./internal/serving

# The serving path's allocation benchmarks at a fixed 2000 iterations, so the
# allocs/op CI's allocation gates read from bench-allocs.txt is the steady
# state rather than one iteration's first-touch allocations: the replica's
# reach RPC, the proxy-to-replica hop, the API edge (one country and the
# Table 1 top-50 list) and the study client's half of a reach estimate.
# World construction's catalog build follows at a fixed 20 iterations per
# catalog size (each is a whole catalog, up to ~10 ms); CI gates its
# allocs/op at 16 at either size, since a catalog allocates nothing per
# interest (6 on one core plus one per further core for the quantile
# transform's block fan-out: 10 on four).
bench-allocs:
	$(GO) test -run '^$$' -bench '^Benchmark(ShardReachShares|ProxyReachHop|ReachEstimateEdge|ReachEstimateEdgeTop50|SourceReachURL)$$' \
		-benchtime 2000x -benchmem ./internal/serving ./internal/adsapi > bench-allocs.txt || { cat bench-allocs.txt; exit 1; }
	$(GO) test -run '^$$' -bench '^BenchmarkBuildCatalog$$' -benchtime 20x -benchmem . >> bench-allocs.txt || { cat bench-allocs.txt; exit 1; }
	cat bench-allocs.txt

# Audience-engine benchmarks (the BENCH_audience.json baseline).
bench-audience:
	$(GO) test -run '^$$' -bench 'Audience' -benchtime 10x -benchmem .

# Uniqueness-estimator benchmarks (the BENCH_uniqueness.json baseline):
# the end-to-end 1k-iteration bootstrap estimate plus the single-resample
# kernel at the paper's 2,390-user panel scale.
bench-uniqueness:
	$(GO) test -run '^$$' -bench 'UniquenessEstimate' -benchtime 10x -benchmem .
	$(GO) test -run '^$$' -bench 'BootstrapResample|ColumnIndexBuild' -benchtime 200x -benchmem ./internal/core

# Serving-tier proxy lane (the BENCH_serving_proxy.json baseline): the
# cmd/fbadsload permuted-probe flood — 400 advertiser accounts x 10 permuted
# re-probes — through a proxy over 3 whole-world replica processes
# (scripts/proxy_smoke.sh), which also gates failover (a replica killed
# mid-flood, then the last replica answering alone, all exactly) and the
# 503 naming every replica once none is left. Numbers are host-dependent;
# perfbench is the repository's measured benchmark.
bench-serving:
	CATALOG=20000 POPULATION=100000000 ACCOUNTS=400 PROBES=10 INTERESTS=18 \
		CONCURRENCY=8 OUT_JSON=BENCH_serving_proxy.json sh scripts/proxy_smoke.sh
	rm -f BENCH_serving_proxy-replica.json

# The serving smoke gate (CI runs this target): a 2-second perfbench run per
# workload through the real fbadsd topology must answer every request
# (failed == 0, attempted > 0) and match the in-process oracle on every
# checked answer (correct == true). Each run's output, whose last line is
# the result, is kept in perfbench-smoke-<workload>.json.
perfbench-smoke:
	@for w in reprobe fresh table1; do \
		echo "perfbench smoke: $$w"; \
		python3 perfbench/run.py --workload $$w --seed 3 --seconds 2 --trace 0 \
			> perfbench-smoke-$$w.json || exit 1; \
		python3 -c 'import json, sys; r = json.loads(open(sys.argv[1]).read().splitlines()[-1]); print(r); sys.exit(not (r["correct"] is True and r["failed"] == 0 and r["attempted"] > 0))' \
			perfbench-smoke-$$w.json || { echo "perfbench smoke failed on $$w" >&2; exit 1; }; \
	done

# Total-coverage gate: fails when coverage drops below COVERAGE_FLOOR.
cover:
	$(GO) test -count=1 -coverprofile=cover.out ./...
	@total=$$($(GO) tool cover -func=cover.out | awk '/^total:/ {sub(/%/, "", $$3); print $$3}'); \
	echo "total coverage: $$total% (floor: $(COVERAGE_FLOOR)%)"; \
	awk -v t="$$total" -v f="$(COVERAGE_FLOOR)" 'BEGIN { exit !(t+0 >= f+0) }' || \
		{ echo "coverage $$total% is below the floor $(COVERAGE_FLOOR)% — add tests (see Makefile for the policy)"; exit 1; }

# 10s-per-target native fuzz smoke (CI runs the same set). Go minimizes each
# new interesting input for up to 60s by default, reporting no execs while it
# does, which would eat most of a 10s window; 200 execs per minimization
# keeps the window fuzzing.
FUZZ_TARGETS = \
	FuzzTargetingSpecParse:./internal/adsapi \
	FuzzParseFBInterestID:./internal/adsapi \
	FuzzReachEstimateHandler:./internal/adsapi \
	FuzzTargetingSpecFastPath:./internal/adsapi \
	FuzzEdgeQuery:./internal/adsapi \
	FuzzReachAnswerScan:./internal/adsapi \
	FuzzShardShareRequest:./internal/serving \
	FuzzShardFrame:./internal/serving \
	FuzzDeadlineHeader:./internal/serving \
	FuzzParseRetryAfter:./internal/adsapi \
	FuzzConjunctionKey:./internal/audience \
	FuzzKeyOrderSensitivity:./internal/audience \
	FuzzCompositeKey:./internal/audience \
	FuzzColumnarVAS:./internal/core \
	FuzzRowKernel:./internal/population \
	FuzzPopularityOrder:./internal/interest \
	FuzzCatalogByName:./internal/interest

fuzz-smoke:
	@for t in $(FUZZ_TARGETS); do \
		name=$${t%%:*}; pkg=$${t##*:}; \
		echo "fuzzing $$name in $$pkg"; \
		$(GO) test -run '^$$' -fuzz "^$$name\$$" -fuzztime 10s -fuzzminimizetime 200x $$pkg || exit 1; \
	done

lint:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "files need gofmt:"; echo "$$out"; exit 1; \
	fi
	$(GO) vet ./...

fmt:
	gofmt -w .

clean:
	$(GO) clean ./...
	rm -f cover.out
