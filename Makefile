# mlvfpga — build, test and reproduction targets.

GO ?= go

.PHONY: all build test check race cover bench lint loc allocs soak fuzz simtest scenario scenario-smoke repro examples clean

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
LOC_CEILING = 25350
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

# Failure-injection soak: kill one device mid-run, drain another, assert
# no request or lease is lost. -short keeps it CI-sized.
soak:
	$(GO) test -race -short -run 'TestSoak|TestControlLoop' -v ./internal/cluster

# Reproduce the paper's evaluation with side-by-side published values.
repro:
	$(GO) run ./cmd/mlv repro

# Short fuzz passes: RTL frontend, partition shard ladder, number formats,
# the lane-packed BFP mat-vec kernel against its unpacked oracle, the
# workload DSL, the five decoders of outside bytes (the blob frame, the
# compiled-artifact and slot-checkpoint payloads sealed in it, the /infer
# body scanner against encoding/json, and the per-opcode counts of an
# /infer response's batch_stats), the /infer handler against
# json.Unmarshal → InferAs → encoding/json, the request signature against
# crypto/hmac, and the §2.3 tools: a scaled-down group after insertion (and
# reordering) against the single device.
# Raise FUZZTIME for a longer hunt; committed seed corpora under each
# package's testdata/fuzz/ replay as plain regressions in `make test`.
FUZZTIME ?= 15s
fuzz:
	$(GO) test -fuzz=FuzzParse -fuzztime=$(FUZZTIME) ./internal/rtl
	$(GO) test -fuzz=FuzzLexer -fuzztime=$(FUZZTIME) ./internal/rtl
	$(GO) test -fuzz=FuzzBisect -fuzztime=$(FUZZTIME) ./internal/partition
	$(GO) test -fuzz=FuzzQuantizeRoundTrip -fuzztime=$(FUZZTIME) ./internal/bfp
	$(GO) test -fuzz=FuzzPackedMatVec -fuzztime=$(FUZZTIME) ./internal/bfp
	$(GO) test -fuzz=FuzzParseMLW -fuzztime=$(FUZZTIME) ./internal/wdsl
	$(GO) test -fuzz=FuzzOpen -fuzztime=$(FUZZTIME) ./internal/frame
	$(GO) test -fuzz=FuzzDecodeBlob -fuzztime=$(FUZZTIME) ./internal/core
	$(GO) test -fuzz=FuzzDecodeSnapshot -fuzztime=$(FUZZTIME) ./internal/snapshot
	$(GO) test -fuzz=FuzzInferBody -fuzztime=$(FUZZTIME) ./internal/rms
	$(GO) test -fuzz=FuzzInferHandler -fuzztime=$(FUZZTIME) ./internal/rms
	$(GO) test -fuzz=FuzzOpCountsJSON -fuzztime=$(FUZZTIME) ./internal/accel
	$(GO) test -fuzz=FuzzSign -fuzztime=$(FUZZTIME) ./internal/tenant
	$(GO) test -fuzz=FuzzScaledMatchesSingle -fuzztime=$(FUZZTIME) ./internal/scaleout

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
