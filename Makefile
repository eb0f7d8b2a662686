.PHONY: check build vet test race bench bench-allocs bench-compare bench-build microbench serve-smoke cluster-smoke hub-smoke svm-determinism alloc-guard profile

# The full pre-merge gate: vet, build, the SVM determinism contract, the
# test suite under the race detector (the transport/faults/serve layers are
# concurrent; -race is the point), the steady-state allocation guards, the
# binary smoke tests (single-node serve, the gateway cluster drill with a
# backend killed mid-burst, then the 1000-stream monitor-hub fleet drill)
# and the benchmark module's build.
check: vet build svm-determinism race alloc-guard serve-smoke cluster-smoke hub-smoke bench-build

# bench-build vets the whole-journey benchmark harness (benchmark/, its
# own Go module) and compiles its tests without running them. It imports
# serve, gateway, monitorhub, monitor and registry, so an API change there
# can break it while the root module's tests stay green. Its tests are
# not run here: one of them is load-sensitive (see ROADMAP). Offline:
# nothing is fetched.
bench-build:
	cd benchmark && GOTOOLCHAIN=local GOPROXY=off go vet ./... && GOTOOLCHAIN=local GOPROXY=off go test -short -count=1 -run '^$$' ./...

# alloc-guard pins the zero-allocation inference contract: a warmed
# core.Pipeline identifies without allocating (single, batched, and
# baseline-cached batched paths), a warmed segmenter ring strides — push,
# trim, emit, release — without allocating, and a steady-state serve
# request (plus a steady-state gateway relay) stays under its allocation
# budget. Run WITHOUT -race (the guards skip themselves under
# instrumentation).
alloc-guard:
	go test -count=1 -run 'TestIdentifyPZeroAllocSteadyState|TestIdentifyBatchPZeroAllocSteadyState|TestIdentifyBatchCachedPZeroAllocSteadyState' ./internal/core
	go test -count=1 -run 'TestSegmenterStrideAllocSteadyState' ./internal/monitor
	go test -count=1 -run 'TestHandleIdentifyAllocSteadyState' ./internal/serve
	go test -count=1 -run 'TestGatewayRelayAllocSteadyState' ./internal/gateway

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

build:
	go build ./...

vet:
	go vet ./...

test:
	go test ./...

race:
	go test -race ./...

# bench runs the full evaluation harness and writes a dated benchmark record
# (per-experiment wall time + component microbenchmarks) for bench-compare.
bench:
	go run ./cmd/wimi-bench -experiment all -bench-json BENCH_$(shell date +%Y-%m-%d).json > /dev/null

# bench-allocs runs the allocation-focused go test benchmarks with
# -benchmem, then refreshes the dated BENCH record (whose micro entries
# carry allocs/op and bytes/op) so allocation behaviour is tracked over
# time and gated by bench-compare's -alloc-threshold.
bench-allocs:
	go test -bench 'BenchmarkServeIdentify' -benchmem -benchtime 50x -run xxx ./internal/serve
	go run ./cmd/wimi-bench -experiment fig18 -bench-json BENCH_$(shell date +%Y-%m-%d).json > /dev/null
	@echo "wrote BENCH_$(shell date +%Y-%m-%d).json"

# bench-compare diffs two benchmark records and fails on a >15% regression.
# Defaults to the two most recent BENCH_*.json; override with OLD=/NEW=.
OLD ?= $(word 2,$(shell ls -t BENCH_*.json 2>/dev/null))
NEW ?= $(word 1,$(shell ls -t BENCH_*.json 2>/dev/null))
bench-compare:
	@test -n "$(OLD)" -a -n "$(NEW)" || { echo "need two BENCH_*.json records (or set OLD= and NEW=)"; exit 2; }
	go run ./cmd/benchdiff $(OLD) $(NEW)

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
