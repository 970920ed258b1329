# Mirrors .github/workflows/ci.yml so local runs and CI stay identical:
# `make` (or `make all`) is exactly what the CI job executes (the bench
# step in CI runs `make bench` directly).

GO ?= go

# The bench target pipes into benchjson; pipefail keeps a failing bench run
# failing the target.
SHELL := bash
.SHELLFLAGS := -o pipefail -ec

.PHONY: all build lint test benchcheck bench serve smoke loadtest fuzz

all: build lint test fuzz benchcheck bench smoke loadtest

# Inside `all` (as in CI) the fuzz step is a smoke run: 10 s per target.
all: FUZZTIME = 10s

build:
	$(GO) build ./...

lint:
	$(GO) vet ./...
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

test:
	$(GO) test -race ./...

# bench/ is its own module (it builds against this one through a replace
# directive), so `./...` above never reaches it: vet and test it directly,
# so that an API change here cannot silently break the benchmark.
benchcheck:
	cd bench && $(GO) vet ./... && $(GO) test -short ./...

# Run every Fuzz* target in turn for FUZZTIME each (go test -fuzz takes one
# target in one package at a time); new failing inputs land in the target's
# testdata/fuzz directory. `go test ./...` runs only each target's seed
# corpus, so this is the one step that explores new inputs; `all` runs it
# at FUZZTIME=10s.
FUZZTIME ?= 30s

fuzz:
	@for pkg in $$($(GO) list ./...); do \
		for target in $$($(GO) test -list '^Fuzz' $$pkg | grep '^Fuzz'); do \
			echo "fuzz: $$pkg $$target for $(FUZZTIME)"; \
			$(GO) test -run '^$$' -fuzz "^$$target$$" -fuzztime $(FUZZTIME) $$pkg; \
		done; \
	done

# Three iterations per benchmark: enough to smooth single-sample noise now
# that cmd/benchtrend gates CI on these numbers, still cheap enough for
# every run. benchjson converts the log into BENCH.json (benchmark →
# ns/op, B/op, allocs/op, custom metrics) so the perf trajectory is
# tracked across PRs. CI uploads BENCH.json as an artifact.
bench:
	$(GO) test -run '^$$' -bench . -benchtime 3x -benchmem ./... | $(GO) run ./cmd/benchjson -o BENCH.json

# Run the policy-serving daemon locally (Ctrl-C to stop).
serve:
	$(GO) run ./cmd/dpmserved -addr localhost:8080

# Build dpmserved with the race detector and drive it end to end: start,
# health check, cold solve, cache hit, a dpmtop snapshot, a drifting
# workload streamed through the online-adaptation endpoint (dpmfeed), clean
# SIGTERM shutdown.
smoke:
	$(GO) build -race -o bin/dpmserved ./cmd/dpmserved
	$(GO) build -o bin/dpmfeed ./cmd/dpmfeed
	$(GO) build -o bin/dpmtop ./cmd/dpmtop
	./scripts/smoke.sh bin/dpmserved bin/dpmfeed bin/dpmtop

# smoke plus a closed-loop load phase: dpmload drives mixed hit/warm/cold/
# observe traffic at two concurrency levels against the race-instrumented
# daemon with -require-p99, merges the measured req/s and p50/p90/p99 into
# BENCH.json (LoadServed/conc=N entries, gated by cmd/benchtrend alongside
# the solver headlines), and asserts traces stay retrievable under load.
# Run after `make bench` so the merge lands in a fresh BENCH.json.
loadtest:
	$(GO) build -race -o bin/dpmserved ./cmd/dpmserved
	$(GO) build -o bin/dpmfeed ./cmd/dpmfeed
	$(GO) build -o bin/dpmtop ./cmd/dpmtop
	$(GO) build -o bin/dpmload ./cmd/dpmload
	BENCH_OUT=BENCH.json ./scripts/smoke.sh bin/dpmserved bin/dpmfeed bin/dpmtop bin/dpmload
