# pchls — power-constrained high-level synthesis.

GO ?= go

.PHONY: all build test test-race vet bench bench-scaling test-alloc figures fuzz cover cover-report sweep lint vulncheck serve smoke cluster-smoke loadtest clean

all: build vet test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...
	test -z "$$(gofmt -l .)"

test:
	$(GO) test ./...

# Full suite under the race detector — the gate for the parallel
# exploration engine (internal/runner and its call sites).
test-race:
	$(GO) test -race ./...

# One iteration of every benchmark: regenerates the data behind every
# table and figure of the paper plus the ablations.
bench:
	$(GO) test -bench=. -benchmem -benchtime=1x -run=NONE .

# Full scaling lane: every BenchmarkScaling tier including the two
# ~20-minute exhaustive legacy n=1000 passes; the benchmark fails any tier
# whose legacy-over-scale speedup is below its floor. Wall time of the
# engine itself is A/B-gated by scripts/bench_ab.sh (benchmark/).
bench-scaling:
	PCHLS_SCALING_FULL=1 $(GO) test -run '^$$' -bench BenchmarkScaling -benchtime 1x -timeout 90m ./internal/core

# Allocation-regression tests (hot-path and benchmark-point AllocsPerRun
# budgets) plus the scaling tiers' exact work counters; these are
# meaningless under -race, or too slow there, so they get their own
# race-free lane.
test-alloc:
	$(GO) test -run Allocs -v . ./internal/sched ./internal/core ./internal/explore ./internal/server

# Full experiment artifacts: Figure 2 CSVs + HTML, Figure 1 report,
# time-power surface.
figures:
	$(GO) run ./cmd/pchls-explore -all -pmin 2.5 -step 2.5 -csvdir results -html results/figure2.html
	$(GO) run ./cmd/pchls-battery -g hal -P 12 > results/figure1.txt
	$(GO) run ./cmd/pchls-explore -surface -g hal -html results/surface_hal.html > results/surface_hal.txt
	$(GO) run ./cmd/pchls-battery -g hal -P 12 -html results/figure1.html > /dev/null

fuzz:
	$(GO) test -fuzz='FuzzParse$$' -fuzztime=30s ./internal/cdfg/
	$(GO) test -fuzz=FuzzParseJSON -fuzztime=30s ./internal/cdfg/
	$(GO) test -fuzz='FuzzParse$$' -fuzztime=30s ./internal/library/
	$(GO) test -fuzz=FuzzParseJSON -fuzztime=30s ./internal/library/
	$(GO) test -fuzz=FuzzRunnerMap -fuzztime=30s ./internal/runner/
	$(GO) test -fuzz='FuzzWindows$$' -fuzztime=30s ./internal/sched/
	$(GO) test -fuzz='FuzzFit$$' -fuzztime=30s ./internal/core/
	$(GO) test -fuzz='FuzzColdWindows$$' -fuzztime=30s ./internal/core/
	$(GO) test -fuzz=FuzzDecodeRequest -fuzztime=30s ./internal/server/
	$(GO) test -fuzz=FuzzSynthesizeVerify -fuzztime=30s .

# Run the synthesis daemon locally.
serve:
	$(GO) run ./cmd/pchls-server -addr :8080

# End-to-end smoke of the daemon: start it on a private port, probe
# /healthz, synthesize hal twice (cold then warm must byte-match), and
# check /metrics reports the cache hit.
smoke:
	./scripts/smoke.sh

# Cluster smoke: boot a coordinator plus two workers, run a sharded
# sweep and surface, and require byte-identity against the pchls CLI.
cluster-smoke:
	./scripts/cluster_smoke.sh

# Load test: warm an in-process daemon, then drive 1000-concurrent
# traffic at it and report latency quantiles from the obs histogram
# (LOADTEST_ARGS overrides, e.g. LOADTEST_ARGS='-addr http://host:8080').
loadtest:
	$(GO) run ./scripts/loadtest $(LOADTEST_ARGS)

cover:
	$(GO) test ./... -cover

# Coverage profile + per-function report (writes cover.out).
cover-report:
	$(GO) test ./... -coverprofile=cover.out
	$(GO) tool cover -func=cover.out | tail -1

# Full-size property sweep: 10k random instances through
# synthesize -> independent verify (override PCHLS_PROPERTY_DESIGNS).
sweep:
	$(GO) test -run TestPropertySynthesizeVerify -v .

# Static analysis beyond vet. staticcheck/govulncheck are not vendored;
# the targets no-op with a notice when the binaries are absent so the
# default dev container stays dependency-free (CI installs them).
lint:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "lint: staticcheck not installed; skipping (go install honnef.co/go/tools/cmd/staticcheck@latest)"; \
	fi

vulncheck:
	@if command -v govulncheck >/dev/null 2>&1; then \
		govulncheck ./...; \
	else \
		echo "vulncheck: govulncheck not installed; skipping (go install golang.org/x/vuln/cmd/govulncheck@latest)"; \
	fi

clean:
	rm -f test_output.txt bench_output.txt
