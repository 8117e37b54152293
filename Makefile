# Mirrors .github/workflows/ci.yml so local and CI invocations cannot drift:
# `make lint test` runs exactly the CI gates.

GO ?= go

# Minimum total test coverage (%) enforced by `make cover` and CI. Raising
# it: run `make cover`, note the "total:" line, and bump the floor to about
# one point below the new total so unrelated refactors don't flap the gate.
# Never lower it to make a PR pass — add tests instead.
COVERAGE_FLOOR ?= 74.7

.PHONY: all build test bench bench-smoke bench-audience bench-uniqueness bench-serving cover fuzz-smoke lint fmt clean

all: lint build test

build:
	$(GO) build ./...

test:
	$(GO) test -race ./...

# Full benchmark sweep (minutes); bench-smoke is the 1-iteration CI variant.
bench:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./...

bench-smoke:
	$(GO) test -run '^$$' -bench 'Figure1$$|Figure3$$|Table1$$|AblationParallelism|Audience|UniquenessEstimate|BootstrapResample|ServingLoad|ProxyBreakerFastFail' -benchtime 1x -benchmem . ./internal/core ./internal/serving

# Audience-engine benchmarks (the BENCH_audience.json baseline).
bench-audience:
	$(GO) test -run '^$$' -bench 'Audience' -benchtime 10x -benchmem .

# Uniqueness-estimator benchmarks (the BENCH_uniqueness.json baseline):
# the end-to-end 1k-iteration bootstrap estimate plus the single-resample
# kernel at the paper's 2,390-user panel scale.
bench-uniqueness:
	$(GO) test -run '^$$' -bench 'UniquenessEstimate' -benchtime 10x -benchmem .
	$(GO) test -run '^$$' -bench 'BootstrapResample|ColumnIndexBuild' -benchtime 200x -benchmem ./internal/core

# Serving-tier load baseline (the BENCH_serving.json baseline): the
# cmd/fbadsload permuted-probe sweep — 400 advertiser accounts x 10 permuted
# re-probes — replayed against the in-process serving stack at shards 1 and
# 4, plus the -proxy lane: the same flood through a real 2-process shard
# topology behind the scatter-gather proxy (scripts/proxy_smoke.sh), which
# also gates failover (renormalize keeps answering with a shard down, fail
# 503s naming it) and records BENCH_serving_proxy.json. The recorded
# throughput ratio is host-dependent (scatter-gather only wins with cores to
# scatter across); CI gates the fields being present, not the ratio's value.
bench-serving:
	$(GO) run ./cmd/fbadsload -catalog 20000 -population 100000000 -accounts 400 -probes 10 -interests 18 -concurrency 8 -sweep 1,4 -json BENCH_serving.json
	CATALOG=20000 POPULATION=100000000 ACCOUNTS=400 PROBES=10 INTERESTS=18 \
		CONCURRENCY=8 OUT_JSON=BENCH_serving_proxy.json sh scripts/proxy_smoke.sh
	rm -f BENCH_serving_proxy-degraded.json BENCH_serving_proxy-chaos.json BENCH_serving_proxy-replica.json

# Total-coverage gate: fails when coverage drops below COVERAGE_FLOOR.
cover:
	$(GO) test -count=1 -coverprofile=cover.out ./...
	@total=$$($(GO) tool cover -func=cover.out | awk '/^total:/ {sub(/%/, "", $$3); print $$3}'); \
	echo "total coverage: $$total% (floor: $(COVERAGE_FLOOR)%)"; \
	awk -v t="$$total" -v f="$(COVERAGE_FLOOR)" 'BEGIN { exit !(t+0 >= f+0) }' || \
		{ echo "coverage $$total% is below the floor $(COVERAGE_FLOOR)% — add tests (see Makefile for the policy)"; exit 1; }

# 10s-per-target native fuzz smoke (CI runs the same set).
FUZZ_TARGETS = \
	FuzzTargetingSpecParse:./internal/adsapi \
	FuzzParseFBInterestID:./internal/adsapi \
	FuzzReachEstimateHandler:./internal/adsapi \
	FuzzShardShareRequest:./internal/serving \
	FuzzConjunctionKey:./internal/audience \
	FuzzKeyOrderSensitivity:./internal/audience \
	FuzzCompositeKey:./internal/audience \
	FuzzColumnarVAS:./internal/core

fuzz-smoke:
	@for t in $(FUZZ_TARGETS); do \
		name=$${t%%:*}; pkg=$${t##*:}; \
		echo "fuzzing $$name in $$pkg"; \
		$(GO) test -run '^$$' -fuzz "^$$name\$$" -fuzztime 10s $$pkg || exit 1; \
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
