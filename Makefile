.PHONY: check fmt build vet test race race-stress bench-build bench-pairs bench-once microbench serve-smoke cluster-smoke hub-smoke svm-determinism alloc-guard profile fuzz

# The full pre-merge gate: formatting, vet, build, the SVM determinism
# contract, the test suite under the race detector (the
# transport/faults/serve layers are concurrent; -race is the point), the
# repeated race run of serve's admission state, the steady-state
# allocation guards, one run of every package benchmark, the binary smoke
# tests (single-node serve, the gateway cluster drill with a backend
# killed mid-burst, then the 1000-stream monitor-hub fleet drill) and the
# benchmark module's build.
check: fmt vet build svm-determinism race race-stress alloc-guard bench-once serve-smoke cluster-smoke hub-smoke bench-build

# fmt fails when gofmt would change any Go file in the repository (the
# benchmark module included) and lists those files.
fmt:
	@files=$$(gofmt -l .); if [ -n "$$files" ]; then echo "gofmt needed:"; echo "$$files"; exit 1; fi

# bench-build vets the whole-journey benchmark harness (benchmark/, its
# own Go module) and compiles its tests without running them. It imports
# serve, gateway, monitorhub, monitor and registry, so an API change there
# can break it while the root module's tests stay green. Its tests are
# not run here: one of them is load-sensitive (see ROADMAP). Offline:
# nothing is fetched.
bench-build:
	cd benchmark && GOTOOLCHAIN=local GOPROXY=off go vet ./... && GOTOOLCHAIN=local GOPROXY=off go test -short -count=1 -run '^$$' ./...

# alloc-guard pins the zero-allocation inference contract: a warmed
# core.Pipeline identifies without allocating (uncached, and through a warm
# baseline cache as the hub does), a warmed segmenter ring strides — push,
# trim, emit, release — without allocating, a warmed trace reader decodes
# records without allocating, and a steady-state serve request (plus a
# steady-state gateway relay) stays under its allocation budget. Run
# WITHOUT -race (the guards skip themselves under instrumentation). Each
# named guard must run and pass: go test -run alone exits 0 with "no tests
# to run" when a name matches nothing, and a skipped guard guards nothing.
alloc-guard:
	@$(call guard,./internal/core,TestIdentifyPZeroAllocSteadyState)
	@$(call guard,./internal/monitor,TestSegmenterStrideAllocSteadyState)
	@$(call guard,./internal/trace,TestReaderRecordsDoNotAllocate)
	@$(call guard,./internal/serve,TestHandleIdentifyAllocSteadyState)
	@$(call guard,./internal/gateway,TestGatewayRelayAllocSteadyState)

# guard runs the |-separated top-level tests $(2) of package $(1) and fails
# unless every one of them ran and passed.
guard = out=$$(go test -count=1 -v -run '^($(2))$$' $(1) 2>&1) || { echo "$$out"; exit 1; }; \
	for name in $$(echo '$(2)' | tr '|' ' '); do \
		echo "$$out" | grep -q "^--- PASS: $$name " || { echo "$$out"; echo "alloc-guard: $$name did not run and pass in $(1)"; exit 1; }; \
	done; echo "ok   $(1) $(2)"

# svm-determinism pins the parallel-training contract under the race
# detector: byte-identical multiclass models and identical grid-search
# picks at any worker count, plus the solver's cached-error invariant.
svm-determinism:
	go test -race -count=1 -run 'WorkerCountInvariance|CachedError|BiasRefit' ./internal/svm

# serve-smoke builds the wimi-serve binary, starts it on a random port
# with a freshly trained fixture model, fires a scripted identify request,
# asserts the JSON response, and drains it with SIGTERM.
serve-smoke:
	go test -count=1 -run TestServeSmoke -v ./cmd/wimi-serve | grep -E "serve-smoke|PASS|FAIL|ok "

# cluster-smoke builds wimi-gateway, wimi-serve and wimi-load, brings up a
# 1-gateway/2-backend cluster (the gateway running its batched data plane,
# -batch 8), fires a 2s wimi-load burst while one backend is SIGKILLed
# mid-run, and requires zero failed requests — the failover contract as a
# binary-level drill.
cluster-smoke:
	go test -count=1 -run TestClusterSmoke -v ./cmd/wimi-gateway | grep -E "cluster-smoke|PASS|FAIL|ok "

# hub-smoke builds wimi-hub, drives 1000 simulated streams plus one real
# TCP source through it, requires ≥95% of the fleet to confirm its liquid,
# kills and restarts the TCP source mid-run (the stream must go down and
# recover), and drains the hub with SIGTERM — the fleet-monitoring
# contract as a binary-level drill.
hub-smoke:
	go test -count=1 -run TestHubSmoke -v ./cmd/wimi-hub | grep -E "hub-smoke|PASS|FAIL|ok "

# fuzz runs every native fuzz target in the module (each package's
# func Fuzz* in its _test.go files, so a new target joins by itself) for a
# fixed 10 s each: go test takes one -fuzz target per run. It is a
# budgeted search, not a gate, so it stays out of check; the committed
# seed corpora under each package's testdata/fuzz replay on every plain
# go test instead. -fuzzminimizetime is short because a run executes
# nothing while it minimises a new input, and Go's default of 60 s would
# spend most of the budget there.
fuzz:
	@set -e; for dir in $$(go list -f '{{.Dir}}' ./...); do \
		for target in $$(cat $$dir/*_test.go 2>/dev/null | sed -n 's/^func \(Fuzz[A-Za-z0-9_]*\)(.*/\1/p'); do \
			echo "fuzz $$dir $$target"; \
			go test -run '^$$' -fuzz "^$$target\$$" -fuzztime 10s -fuzzminimizetime 1s $$dir; \
		done; \
	done

build:
	go build ./...

vet:
	go vet ./...

test:
	go test ./...

race:
	go test -race ./...

# race-stress repeats, ten times under the race detector, the tests that
# reach shared state from many goroutines at once: serve's admission count,
# pipeline-slot semaphore and outcome counters, and the gateway's
# concurrent routing — least-loaded placement around a held backend and
# around a fast-failing one whose breaker is open, and the batched,
# coalesced relay against the single one. One clean run of concurrent
# code proves little. The gateway chaos test stays out: it is
# load-sensitive when run alongside itself.
race-stress:
	go test -race -count=10 -run 'TestAdmissionBoundsAndCounters|TestShedsWith429WhenSaturated|TestShutdownDrainsAdmittedRequests|TestBatchedIdentifyMatchesSingleHTTP|TestBatchEndpointSlotsMatchSingleResponses' ./internal/serve
	go test -race -count=10 -run '^(TestRoutesAroundHeldBackend|TestRoutesAroundFastFailingBackend|TestBatchedRelayBitIdentical)$$' ./internal/gateway

# bench-once runs every package benchmark under internal/ and cmd/ for
# one iteration, without -race, so a benchmark that no longer builds or
# fails its own checks is caught before someone times with it. It times
# nothing: the layer method is go test -bench <name> -benchmem -count N,
# alternated per side (EXPERIMENTS.md). The root package's benchmarks
# regenerate the paper's figures and stay out.
bench-once:
	go test -count=1 -run '^$$' -bench . -benchtime 1x ./internal/... ./cmd/...

# bench-pairs runs the whole-journey benchmark's WORKLOAD in PAIRS
# alternated pairs of runs of BASE (any git revision) and of this checkout,
# on seeds SEED, SEED+1, ...: BASE is checked out with git worktree under
# .bench_build/, each pair swaps which side runs first, and each run's
# last line (its metrics) is printed. Each side's result files are
# collected into a directory of its own under .bench_build/pairs/, then
# `run.sh compare` prints the verdicts (BASE is side A) and the worktree
# is removed. A run that is not correct is reported and kept. Offline.
BASE ?= HEAD
WORKLOAD ?= hub-fleet
PAIRS ?= 10
SEED ?= 1
bench-pairs:
	@set -eu; root=$$PWD; wt=$$root/.bench_build/base-worktree; out=$$root/.bench_build/pairs; \
	git worktree remove --force "$$wt" 2>/dev/null || true; \
	git worktree add --detach "$$wt" "$(BASE)" >/dev/null; \
	trap 'git -C "$$root" worktree remove --force "$$wt"' EXIT; \
	rm -rf "$$out"; mkdir -p "$$out/base" "$$out/change"; \
	run() { \
		log=$$out/$$1/seed$$3.log; \
		(cd "$$2" && bash benchmark/run.sh -workload $(WORKLOAD) -seed $$3 >"$$log" 2>"$$log.err") || echo "$$1 seed $$3: run not correct (see $$log.err)"; \
		cp "$$2/.bench_build/results/$(WORKLOAD)-seed$$3.json" "$$out/$$1/"; \
		echo "pair $$4 $$1 seed $$3: $$(tail -n 1 "$$log")"; \
	}; \
	for i in $$(seq 1 $(PAIRS)); do \
		seed=$$(($(SEED) + i - 1)); \
		if [ $$((i % 2)) -eq 1 ]; then run base "$$wt" $$seed $$i; run change "$$root" $$seed $$i; \
		else run change "$$root" $$seed $$i; run base "$$wt" $$seed $$i; fi; \
	done; \
	bash benchmark/run.sh compare "$$out/base" "$$out/change"

# microbench runs the in-tree go test benchmarks (allocation counts included).
microbench:
	go test -bench=. -benchmem ./...

# profile captures CPU and heap profiles of one experiment into the
# (gitignored) profiles/ directory. Override EXPERIMENT= for a different
# figure; inspect with `go tool pprof profiles/$(EXPERIMENT).cpu.pprof`.
EXPERIMENT ?= fig18
profile:
	mkdir -p profiles
	go run ./cmd/wimi-bench -experiment $(EXPERIMENT) \
		-cpuprofile profiles/$(EXPERIMENT).cpu.pprof \
		-memprofile profiles/$(EXPERIMENT).mem.pprof > /dev/null
	@echo "wrote profiles/$(EXPERIMENT).cpu.pprof and profiles/$(EXPERIMENT).mem.pprof"
