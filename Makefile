GO ?= go

.PHONY: build test test-race test-chaos test-bench fuzz-smoke vet loc bench bench-smoke bench-pairs sweep-demo examples clean

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# Non-test Go lines of the root module (bench/ is a module of its own and
# is left out): the size figure ROADMAP asks every change to report.
loc:
	@find . -name '*.go' ! -name '*_test.go' ! -path './bench/*' -print0 | xargs -0 cat | wc -l

# Race-detector lane (the experiment sweep fans simulations out over a
# worker pool; this keeps the aggregation path provably race-clean).
test-race:
	$(GO) test -race ./...

# Fault-injection lane: the seeded chaos suite (internal/faultinject),
# plain and under the race detector — a sweep under injected panics,
# watchdog kills, and torn cache writes must record exactly the faulted
# cells, and a fault-free resume over its cache must aggregate
# bit-identically to a fault-free sweep (docs/ARCHITECTURE.md "Failure
# semantics").
test-chaos:
	$(GO) test -v ./internal/faultinject/
	$(GO) test -race ./internal/faultinject/

# Benchmark-module lane: bench/ is a Go module of its own (mtsbench, the
# repo benchmark), so the root ./... patterns never build or test it.
# Offline and on the local toolchain, like bench/run.sh.
test-bench:
	cd bench && GOPROXY=off GOTOOLCHAIN=local $(GO) vet ./...
	cd bench && GOPROXY=off GOTOOLCHAIN=local $(GO) test -race ./...

# Fuzz smoke (CI): ten seconds each of the packet arena's fuzz targets —
# pooled copies against Packet.Copy, and acquire/copy/release cycles with
# quarantined releases against the arena's invariants — and of the
# adversary and countermeasure specs through Build and a watched run. A
# failing input is written under the package's testdata/fuzz/. Go
# minimizes each new interesting input for up to 60 s by default, which
# stalls both workers for most of the ten seconds; 200 tries per input
# keeps them fuzzing.
FUZZ_SMOKE = $(GO) test -run '^$$' -fuzztime 10s -fuzzminimizetime 200x
fuzz-smoke:
	$(FUZZ_SMOKE) -fuzz '^FuzzPacketCopy$$' ./internal/packet
	$(FUZZ_SMOKE) -fuzz '^FuzzArenaReuse$$' ./internal/packet
	$(FUZZ_SMOKE) -fuzz '^FuzzScenarioSpecs$$' ./internal/scenario

# Full benchmark suite; see PERFORMANCE.md for methodology.
bench:
	$(GO) test -run xxx -bench . -benchmem -benchtime 5x .
	$(GO) test -run xxx -bench . -benchmem ./internal/...

# One-iteration smoke of every benchmark (CI).
bench-smoke:
	$(GO) test -run xxx -bench . -benchtime 1x .
	$(GO) test -run xxx -bench . -benchtime 1x ./internal/...

# Alternating benchmark pairs between a base revision and this checkout:
#	make bench-pairs BASE=<rev> SEEDS="1 2 3" WORKLOADS="paper-grid dense-1000"
# builds BASE's mtsbench from a `git archive` export under .bench_build/
# (removed once built, so no second source tree lingers in the checkout)
# and this checkout's mtsbench beside it, runs both from the root seed by
# seed (swapping which side goes first at every seed, so slow drifts of
# the host hit both sides alike), writes both labelled run sets (base,
# head) to one JSON-lines file, and judges them with `mtsbench compare`.
# TRACE=1 makes traced runs, which report the per-layer split instead of
# the end-to-end metrics. Nothing under bench/ changes.
BASE ?= HEAD
SEEDS ?= 1 2 3 4 5 6 7 8 9 10
WORKLOADS ?= paper-grid
TRACE ?= 0
PAIRS_DIR = .bench_build/pairs
PAIRS_OUT = $(PAIRS_DIR)/pairs.jsonl
BENCH_ENV = GOCACHE=$(CURDIR)/.bench_build/gocache GOMODCACHE=$(CURDIR)/.bench_build/gomod \
	GOTMPDIR=$(CURDIR)/.bench_build/tmp GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOTELEMETRY=off
bench-pairs:
	rm -rf $(PAIRS_DIR)/base-src $(PAIRS_OUT)
	mkdir -p $(PAIRS_DIR)/base-src .bench_build/tmp
	git archive $(BASE) | tar -x -C $(PAIRS_DIR)/base-src
	cd $(PAIRS_DIR)/base-src/bench && $(BENCH_ENV) $(GO) build -o $(CURDIR)/$(PAIRS_DIR)/mtsbench-base ./cmd/mtsbench
	rm -rf $(PAIRS_DIR)/base-src
	cd bench && $(BENCH_ENV) $(GO) build -o $(CURDIR)/$(PAIRS_DIR)/mtsbench-head ./cmd/mtsbench
	@i=0; status=0; for seed in $(SEEDS); do \
	  if [ $$((i % 2)) -eq 0 ]; then order="base head"; else order="head base"; fi; \
	  for w in $(WORKLOADS); do for side in $$order; do \
	    echo "bench-pairs: seed $$seed $$w $$side"; \
	    $(PAIRS_DIR)/mtsbench-$$side -workload $$w -seed $$seed -trace $(TRACE) \
	      -out $(PAIRS_OUT) -label $$side >>$(PAIRS_DIR)/$$side.log || status=1; \
	  done; done; i=$$((i + 1)); \
	done; \
	$(PAIRS_DIR)/mtsbench-head compare '$(PAIRS_OUT)#base' '$(PAIRS_OUT)#head' || status=1; \
	exit $$status

# Demonstrate the content-addressed run cache (internal/runcache) and the
# recovery path a failed sweep takes, end to end through the CLI. Pass 1
# runs under a 10-event watchdog budget with -keep-going: every cell is
# killed, the demo FAILS unless it exits 3 and caches nothing. Pass 2
# simulates the grid and fills the cache; pass 3, -resume, must serve
# every cell from disk — the demo FAILS unless it reports all 8 hits and
# 0 misses (guards the CLI cache wiring, not just the engine, which
# TestSweepWarmCacheRunsNothing already covers). The binary is built
# once because `go run` reports every non-zero exit status as 1.
SWEEP_DEMO_FLAGS = -duration 8 -reps 2 -speeds 2,10 -protocols AODV,MTS -only fig9 -cache-dir .sweep-demo-cache
SWEEP_DEMO_BIN = .sweep-demo-bin/experiments
sweep-demo:
	rm -rf .sweep-demo-cache .sweep-demo-bin
	$(GO) build -o $(SWEEP_DEMO_BIN) ./cmd/experiments
	$(SWEEP_DEMO_BIN) $(SWEEP_DEMO_FLAGS) -run-events 10 -keep-going; \
	  status=$$?; [ $$status -eq 3 ] || { echo "sweep-demo: watchdog pass exited $$status, want 3" >&2; exit 1; }
	[ -z "$$(find .sweep-demo-cache -name '*.json')" ] || { echo "sweep-demo: watchdog pass cached killed runs" >&2; exit 1; }
	$(SWEEP_DEMO_BIN) $(SWEEP_DEMO_FLAGS)
	$(SWEEP_DEMO_BIN) $(SWEEP_DEMO_FLAGS) -resume 2>.sweep-demo-cache/stderr.log; \
	  status=$$?; cat .sweep-demo-cache/stderr.log >&2; \
	  [ $$status -eq 0 ] && grep -q '8 hits, 0 misses' .sweep-demo-cache/stderr.log
	rm -rf .sweep-demo-cache .sweep-demo-bin

# Re-runs every example that has a committed output and diffs it against
# that output: shuffling (defender against attacker), pathswitching (MTS's
# per-interval delivery, active path, switches and checking rounds),
# eavesdropper (every protocol's interception ratio and each coalition
# member's distinct count), relatedwork (90 s SMR, SMR-BACKUP, AODV and
# MTS runs) and coevolution (the attacker-defender payoff table and move
# history). Each is evidence, so it must stay reproducible byte for byte,
# not just compile. Every example runs; the target fails if any output
# moved. Regenerate one after an intentional behaviour change with:
#	go run ./examples/NAME > examples/NAME/OUTPUT.txt
EXAMPLES = shuffling pathswitching eavesdropper relatedwork coevolution
examples:
	@mkdir -p .examples-out; status=0; \
	for ex in $(EXAMPLES); do \
	  echo "examples: $$ex"; \
	  $(GO) run ./examples/$$ex > .examples-out/$$ex.out && \
	    diff -u examples/$$ex/OUTPUT.txt .examples-out/$$ex.out || status=1; \
	done; \
	rm -rf .examples-out; exit $$status

clean:
	$(GO) clean ./...
	rm -rf .sweep-demo-cache .sweep-demo-bin .examples-out
