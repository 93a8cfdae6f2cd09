GO ?= go

# Coverage gates, one row each: COVER_<gate> is "floor packages...", the
# minimum statement coverage (%) over the listed packages together.
# `make cover-<gate>` checks one row; `make cover` checks every row.
COVER_core      ?= 85.0 ./internal/core/
COVER_serve     ?= 80.0 ./internal/serve/
COVER_stream    ?= 85.0 ./internal/stream/
COVER_cluster   ?= 85.0 ./internal/cluster/
COVER_roofline  ?= 85.0 ./internal/roofline/ ./internal/workloads/
COVER_waitgraph ?= 85.0 ./internal/waitgraph/ ./internal/analysis/
COVER_GATES := core serve stream cluster roofline waitgraph

.PHONY: all build test vet lint race cover $(addprefix cover-,$(COVER_GATES)) smoke fuzz fuzz-short chaos chaos-cluster bench-gate bench-build loc verify clean

# Pinned linter versions, fetched on demand with `go run`. In an offline
# environment (no module proxy) lint degrades to a warning + skip, so the
# verify gate stays runnable anywhere; genuine findings still fail it.
STATICCHECK_VERSION ?= honnef.co/go/tools/cmd/staticcheck@2024.1.1
GOVULNCHECK_VERSION ?= golang.org/x/vuln/cmd/govulncheck@v1.1.3

all: build

build:
	$(GO) build ./...

# -shuffle=on randomizes test execution order within each package so
# order-dependent tests fail loudly instead of passing by accident.
test:
	$(GO) test -shuffle=on ./...

vet:
	$(GO) vet ./...

# Static analysis beyond vet: gofmt over every Go file of the repo (both
# modules), then staticcheck and govulncheck at pinned versions. gofmt
# ships with the toolchain, so it runs offline too; tool-fetch failures of
# the other two (offline container, proxy outage) are detected and
# skipped; analysis findings fail.
lint:
	@out=$$(gofmt -l *.go cmd internal examples spirebench); \
	if [ -n "$$out" ]; then echo "gofmt: these files need formatting:"; echo "$$out"; exit 1; fi; \
	echo "gofmt: ok"
	@out=$$($(GO) run $(STATICCHECK_VERSION) ./... 2>&1); status=$$?; \
	if [ $$status -ne 0 ] && echo "$$out" | grep -Eq 'no such host|connection refused|i/o timeout|dial tcp|proxyconnect|TLS handshake|Get "https?://|no required module provides|cannot find module|missing go.sum entry'; then \
		echo "lint: staticcheck unavailable offline, skipping:"; echo "$$out" | head -3; \
	elif [ $$status -ne 0 ]; then \
		echo "$$out"; exit $$status; \
	else \
		echo "staticcheck: ok"; [ -z "$$out" ] || echo "$$out"; \
	fi
	@out=$$($(GO) run $(GOVULNCHECK_VERSION) ./... 2>&1); status=$$?; \
	if [ $$status -ne 0 ] && echo "$$out" | grep -Eq 'no such host|connection refused|i/o timeout|dial tcp|proxyconnect|TLS handshake|Get "https?://|no required module provides|cannot find module|missing go.sum entry'; then \
		echo "lint: govulncheck unavailable offline, skipping:"; echo "$$out" | head -3; \
	elif [ $$status -ne 0 ]; then \
		echo "$$out"; exit $$status; \
	else \
		echo "govulncheck: ok"; \
	fi

race:
	$(GO) test -race ./...

# Coverage profiles land in the ignored cover/ directory, never the
# repo root.
cover/:
	@mkdir -p cover

cover: $(addprefix cover-,$(COVER_GATES))

$(addprefix cover-,$(COVER_GATES)): cover-%: | cover/
	$(GO) test -coverprofile=cover/coverage-$*.out $(wordlist 2,$(words $(COVER_$*)),$(COVER_$*))
	@pct=$$($(GO) tool cover -func=cover/coverage-$*.out | awk '/^total:/ {gsub(/%/, "", $$3); print $$3}'); \
	floor=$(firstword $(COVER_$*)); \
	echo "cover-$*: $$pct% (floor $$floor%)"; \
	awk -v p="$$pct" -v f="$$floor" 'BEGIN { exit (p+0 >= f+0) ? 0 : 1 }' || \
		{ echo "FAIL: cover-$* coverage $$pct% is below the $$floor% floor"; exit 1; }

# Black-box smoke: build the real binary, start `spire serve` (and a
# router in front of a shard), hit /healthz and one estimate over HTTP,
# check the version banner, and shut down cleanly on SIGTERM.
smoke:
	$(GO) test -run 'TestSmokeServe|TestSmokeRoute|TestSmokeVersion' -count=1 ./cmd/spire/

# Short fuzz pass over the perf-stat CSV parser; the checked-in seed
# corpus under internal/ingest/testdata/fuzz runs as part of plain
# `make test` too.
fuzz:
	$(GO) test -fuzz FuzzPerfStatCSV -fuzztime 30s ./internal/ingest/

# Quick fuzz smoke over every fuzz target (10s each): the batch and
# incremental ingest parsers and their agreement, the roofline fitter,
# the parallel trainer, the model loader, the sliding-window merge, and
# the serving tier's estimate handler and model-upload decoder, and the
# /v1/estimate JSON codec and its direct scan against encoding/json.
fuzz-short:
	$(GO) test -fuzz FuzzPerfStatCSV -fuzztime 10s ./internal/ingest/
	$(GO) test -fuzz FuzzStreamFeed -fuzztime 10s ./internal/ingest/
	$(GO) test -fuzz FuzzBatchStreamAgree -fuzztime 10s ./internal/ingest/
	$(GO) test -fuzz FuzzFitRoofline -fuzztime 10s ./internal/core/
	$(GO) test -fuzz FuzzTrainParallel -fuzztime 10s ./internal/core/
	$(GO) test -fuzz FuzzLoadEnsemble -fuzztime 10s ./internal/core/
	$(GO) test -fuzz FuzzWindowMerge -fuzztime 10s ./internal/core/
	$(GO) test -fuzz FuzzHierarchyEval -fuzztime 10s ./internal/core/
	$(GO) test -fuzz FuzzSurfaceParams -fuzztime 10s ./internal/core/
	$(GO) test -fuzz FuzzEstimateHandler -fuzztime 10s ./internal/serve/
	$(GO) test -fuzz FuzzModelDecode -fuzztime 10s ./internal/serve/
	$(GO) test -fuzz FuzzBinDecodeEstimate -fuzztime 10s ./internal/wire/
	$(GO) test -fuzz FuzzBinRoundTrip -fuzztime 10s ./internal/wire/
	$(GO) test -fuzz FuzzJSONCodecAgree -fuzztime 10s ./internal/wire/
	$(GO) test -fuzz FuzzScanEstimateJSON -fuzztime 10s ./internal/wire/
	$(GO) test -fuzz FuzzParseConfig -fuzztime 10s ./internal/cluster/
	$(GO) test -fuzz FuzzParseShardList -fuzztime 10s ./internal/cluster/
	$(GO) test -fuzz FuzzSchedEventParse -fuzztime 10s ./internal/ingest/
	$(GO) test -fuzz FuzzWaitGraphBuild -fuzztime 10s ./internal/waitgraph/

# Transport-level chaos soak under the race detector: retrying clients
# against a live server through the faultinject chaos transport and
# listener (stalls, resets, slow-loris, truncated frames), asserting
# bounded error rates, byte-identical successes, and exact admission
# accounting. Bounded -timeout so a hang fails fast instead of wedging CI.
chaos:
	$(GO) test -race -count=1 -timeout 300s -run 'TestChaos' ./internal/client/ ./internal/faultinject/

# Cluster soaks under the race detector: the kill/restart soak (abrupt
# shard deaths, empty-registry restarts, re-convergence) and the chaos
# soaks on the router<->shard hop (faultinject stalls, resets, truncated
# frames on relays, health probes, and model pushes).
chaos-cluster:
	$(GO) test -race -count=1 -timeout 300s -run 'TestChaosCluster|TestClusterKillRestartSoak' ./internal/cluster/

# Benchmark regression gate: re-measures the columnar steady state
# (BenchmarkBatchEstimate's timed region, best of 3) against the
# recording in BENCH_core_columnar.json — fails on >20% ns/op
# regression or any allocation per op — and the served-request codec
# benchmarks (JSON decode, JSON encode, workload key) against
# BENCH_wire.json and the workload index builds against BENCH_index.json,
# whose allocs/op must match exactly.
bench-gate:
	BENCH_GATE=1 $(GO) test -run TestBenchGate -count=1 -timeout 600s .

# spirebench/ is a separate Go module, so `go build ./...` never compiles
# it; vet and build it here so an internal API change cannot silently
# break the serving benchmark.
bench-build:
	cd spirebench && $(GO) vet ./... && $(GO) build -o /dev/null .

# Go line and file counts, non-test and test, for the change log. The
# separate spirebench module and its build output are not counted.
loc:
	@src() { find . -name '*.go' -not -path './spirebench/*' -not -path './.bench_build/*' "$$@"; }; \
	printf 'non-test Go: %6d lines in %3d files\n' $$(src ! -name '*_test.go' -exec cat {} + | wc -l) $$(src ! -name '*_test.go' | wc -l); \
	printf 'test Go:     %6d lines in %3d files\n' $$(src -name '*_test.go' -exec cat {} + | wc -l) $$(src -name '*_test.go' | wc -l)

# The full verification gate: build, static checks, tests, race tests,
# the coverage floors, the serving smoke, the chaos soak, a short fuzz
# smoke, the benchmark regression gate and the benchmark module build.
verify: build vet lint test race cover smoke chaos chaos-cluster fuzz-short bench-gate bench-build

clean:
	$(GO) clean ./...
	rm -rf cover
	rm -f coverage.out coverage-serve.out coverage-stream.out
