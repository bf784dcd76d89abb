# mlvfpga — build, test and reproduction targets.

GO ?= go

.PHONY: all build test check race cover bench lint loc allocs stress soak fuzz simtest scenario scenario-smoke repro examples clean

all: check

build:
	$(GO) build ./...

test:
	$(GO) vet ./...
	$(GO) test ./...

# Full gate: build, vet, plain tests, then everything again under the race
# detector — the concurrent catalog compiles and the serving layers must
# stay race-clean.
check: build test race

race:
	$(GO) test -race ./...

cover:
	$(GO) test -cover ./...

# The repository's benchmark: the four BENCHMARK.json workloads, 30 s
# each, stopping on the first non-zero exit (see benchmark/README.md).
bench:
	for w in serve_compute serve_small serve_batched fleet_sim; do \
		$(GO) run ./benchmark -workload $$w -seed 1 || exit 1; \
	done

# Formatting and static analysis beyond go vet. gofmt must have nothing
# to rewrite (the files it would rewrite are printed). Uses staticcheck
# when installed (CI installs the pinned STATICCHECK_VERSION below; locally:
# go install honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION))
# and degrades to a notice when absent, so `make lint` never needs network.
STATICCHECK_VERSION ?= 2024.1.1
lint:
	@files=$$(gofmt -l .); test -z "$$files" || { echo "lint: gofmt would rewrite:"; echo "$$files"; exit 1; }
	$(GO) vet ./...
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./... ; \
	else \
		echo "lint: staticcheck not installed, ran go vet only (go install honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION))"; \
	fi

# Size of the tree, counted the way CHANGES.md has since PR 17, and a
# ratchet (ROADMAP aim 2): non-test lines above LOC_CEILING fail. A PR that
# shrinks the tree lowers the ceiling to its own count rounded up to the
# next 50; a PR that must grow it raises the ceiling in the same diff, where
# a reviewer sees it.
LOC_CEILING = 25000
loc:
	@n=$$(find . -name '*.go' ! -name '*_test.go' | xargs cat | wc -l); \
	echo "non-test lines: $$n (ceiling $(LOC_CEILING))"; \
	echo "test lines:     $$(find . -name '*_test.go' | xargs cat | wc -l)"; \
	[ $$n -le $(LOC_CEILING) ] || { echo "loc: $$n non-test lines exceed LOC_CEILING=$(LOC_CEILING)"; exit 1; }

# Allocation levels, without the race detector: under -race sync.Pool
# drops items, so the pooled-path tests skip, and every budget inflates.
# Runs each package that holds a count through testing.AllocsPerRun or a
# runtime.MemStats delta.
allocs:
	$(GO) test -count=1 $$(grep -rl --include='*_test.go' -e AllocsPerRun -e ReadMemStats . | xargs -n1 dirname | sort -u)

# The serving and control-plane packages' tests, and the simulator's
# sweep and determinism tests, on a loaded host: -count=5 at one, two and
# eight Ps, beside two busy-loop processes that this target starts and
# kills on exit. It changes no machine setting.
stress:
	@sh -c 'while :; do :; done' & a=$$!; sh -c 'while :; do :; done' & b=$$!; \
	trap 'kill $$a $$b' EXIT; \
	for p in 1 2 8; do \
		echo "GOMAXPROCS=$$p $(GO) test -count=5 ./internal/rms ./internal/cluster"; \
		GOMAXPROCS=$$p $(GO) test -count=5 ./internal/rms ./internal/cluster || exit 1; \
		echo "GOMAXPROCS=$$p $(GO) test -count=5 -run 'TestSimSweep|TestSimDeterminism' ./internal/simtest"; \
		GOMAXPROCS=$$p $(GO) test -count=5 -run 'TestSimSweep|TestSimDeterminism' ./internal/simtest || exit 1; \
	done

# Failure-injection soak: kill one device mid-run, drain another, assert
# no request or lease is lost. -short keeps it CI-sized.
soak:
	$(GO) test -race -short -run 'TestSoak|TestControlLoop' -v ./internal/cluster

# Reproduce the paper's evaluation with side-by-side published values.
repro:
	$(GO) run ./cmd/mlv repro

# Short fuzz passes over every `func Fuzz` target the tree declares, one
# `-fuzz='^Name$'` run per target in its package, so a new target is
# fuzzed without being listed here. Among them: the RTL frontend, the
# partition shard ladder, number formats, the lane-packed BFP mat-vec
# kernel against its unpacked oracle, the workload DSL, the decoders of
# outside bytes, the /infer handler, the request signature against
# crypto/hmac, and a scaled-down §2.3 group against the single device.
# Raise FUZZTIME for a longer hunt; committed seed corpora under each
# package's testdata/fuzz/ replay as plain regressions in `make test`.
# -fuzzminimizetime=100x caps how long each new interesting input is
# minimized (go's default is 60s per input), so a target spends its budget
# fuzzing; at the default a slow target such as FuzzInferHandler spent a
# 20 s pass minimizing its first new input and ran about 20 execs.
FUZZTIME ?= 15s
fuzz:
	@set -e; for f in $$(grep -rl --include='*_test.go' '^func Fuzz' . | sort); do \
		for t in $$(sed -n 's/^func \(Fuzz[A-Za-z0-9_]*\)(.*/\1/p' $$f); do \
			echo "$(GO) test -fuzz='^$$t\$$' -fuzztime=$(FUZZTIME) -fuzzminimizetime=100x $$(dirname $$f)"; \
			$(GO) test -fuzz="^$$t\$$" -fuzztime=$(FUZZTIME) -fuzzminimizetime=100x $$(dirname $$f); \
		done; \
	done

# Deterministic whole-cluster simulation sweep. Each seed drives one
# scripted run of the full stack (registry + control plane + data plane)
# on the discrete-event clock, checking invariants after every event; a
# failure prints the seed and a minimized schedule. Scale with
# SIMSEEDS/SIMSTEPS, replay one failure with SIMSEED.
SIMSEEDS ?= 20
SIMSTEPS ?= 500
SIMSEED ?= 0
simtest:
ifneq ($(SIMSEED),0)
	$(GO) test ./internal/simtest -run TestSimSeed -seed=$(SIMSEED) -steps=$(SIMSTEPS) -count=1 -v
else
	$(GO) test ./internal/simtest -run 'TestSimSweep|TestSimDeterminism' -seeds=$(SIMSEEDS) -steps=$(SIMSTEPS) -count=1 -v
endif

# Workload-DSL scenario runs: compile a .mlw spec's models to AS-ISA
# kernels and play its arrival process and fault storms on the
# deterministic simulation stack, every invariant family checked per
# event. SCENARIO picks the spec; the SLO report JSON lands in
# SCENARIO_REPORT_DIR (validated after a write-read round trip).
SCENARIO ?= testdata/scenarios/diurnal-1000.mlw
SCENARIO_REPORT_DIR ?= /tmp/scenario-reports
scenario:
	mkdir -p $(SCENARIO_REPORT_DIR)
	$(GO) run ./cmd/mlv scenario run -out $(SCENARIO_REPORT_DIR)/$(notdir $(SCENARIO)).json $(SCENARIO)

# CI smoke: the small-fleet diurnal spec with a mid-run kill storm, plus
# the scenario package tests (committed specs, determinism at 10 and 1000
# devices, report round-trip).
scenario-smoke:
	mkdir -p $(SCENARIO_REPORT_DIR)
	$(GO) run ./cmd/mlv scenario run -out $(SCENARIO_REPORT_DIR)/smoke.json testdata/scenarios/smoke.mlw
	$(GO) test ./internal/scenario ./internal/wdsl -count=1

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/lstm-inference
	$(GO) run ./examples/multi-tenant-cloud
	$(GO) run ./examples/scaleout-overlap

clean:
	$(GO) clean ./...
