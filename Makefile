GO ?= go

.PHONY: ci fmt-check vet build test race fuzz-short fuzz bench bench-capture bench-smoke bench-e2e perf-pairs perf-counts loc golden trace-determinism chaos overload obs obs-live arena testnet soak

## ci: the full pre-merge gate — gofmt, vet, build, tests under the race
## detector, the fuzz seed corpora in short mode, the event-trace
## replication check, the chaos, overload, observability (sim and
## live), arena, testnet and soak gates, the bench-capture smoke check,
## and the separately-moduled end-to-end benchmark's own vet and tests.
ci: fmt-check vet build race fuzz-short trace-determinism chaos overload obs obs-live arena testnet soak bench-smoke bench-e2e

## fmt-check: every Go file is gofmt-clean (the benchmark's build
## directory holds a module cache, not our sources).
fmt-check:
	test -z "$$(gofmt -l . | grep -v '^.bench_build/')"

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

## fuzz-short: run every Fuzz* target's checked-in seed corpus only
## (no mutation) across all packages — fast, deterministic, suitable
## for CI.
fuzz-short:
	$(GO) test -run '^Fuzz' ./...

## fuzz: actually mutate for a bounded time (override FUZZTIME and
## FUZZTARGET/FUZZPKG to steer).
FUZZTIME ?= 30s
FUZZTARGET ?= FuzzMaxminConvergence
FUZZPKG ?= ./internal/maxmin
fuzz:
	$(GO) test -run '^$$' -fuzz $(FUZZTARGET) -fuzztime $(FUZZTIME) $(FUZZPKG)

## bench: run every benchmark in the repository, in every package that
## has one. Timings scroll by; use bench-capture to record them.
BENCHPKGS = . ./internal/admission ./internal/core ./internal/dataplane ./internal/des \
	./internal/eventbus ./internal/maxmin ./internal/obs \
	./internal/obs/live ./internal/reserve ./internal/sched \
	./internal/strategy ./internal/testnet ./internal/wire
bench:
	$(GO) test -bench . -benchmem -run '^$$' $(BENCHPKGS)

## bench-capture: run the fixed-iteration benchmark suite per area and
## append one trajectory entry to each BENCH_<area>.json at the repo
## root, printing a comparison against the previous entry (>20% moves
## are flagged). Set NOTE to label the entry.
NOTE ?=
bench-capture:
	$(GO) run ./cmd/benchcap -root . -note '$(NOTE)'

## bench-smoke: health check for the capture harness itself — one
## iteration per benchmark, parsed by benchx, written to a throwaway
## directory. No timing assertions; it only proves the harness and
## every captured benchmark still build, run and parse.
bench-smoke:
	$(GO) run ./cmd/benchcap -smoke

## bench-e2e: bench/ is a module of its own (BENCHMARK.json runs it), so
## `./...` above never compiles it — vet and test it here, or a deleted
## exported function breaks the benchmark unnoticed.
bench-e2e:
	$(GO) vet -C bench ./...
	$(GO) test -C bench -count=1 ./...

## perf-pairs: the measurement every performance claim rests on — PAIRS
## alternating runs of one bench/ workload on PARENT (exported into
## .bench_build/) and on the working tree, with per-side median and
## quartiles of every end-to-end metric, pairs won, summed
## failed/attempted and the "open loop did not hold" count.
PARENT ?= HEAD
WORKLOAD ?= campus-walk
PAIRS ?= 10
SEED ?= 0
perf-pairs:
	bash scripts/benchpairs.sh $(PARENT) $(WORKLOAD) $(PAIRS) $(SEED)

## perf-counts: the equivalence proof a performance PR owes — one traced
## pass of each deterministic WORKLOAD (a space-separated list, e.g.
## WORKLOAD="office-churn live-loopback-churn campus-walk") on PARENT and
## on the working tree, every exact per-layer row (unit count, ratio or
## bit/s) diffed, one table per workload; exits non-zero on any
## difference. live-udp-paced is refused.
perf-counts:
	bash scripts/benchcounts.sh $(PARENT) "$(WORKLOAD)" $(SEED)

## loc: the ROADMAP scoreboard — non-test and test Go lines and the
## package counts of the root module (bench/ and its build directory
## excluded). Record before/after in each PR's CHANGES.md entry.
LOCFIND = find . -name '*.go' -not -path './bench/*' -not -path './.bench_build/*'
loc:
	@echo "non-test Go lines: $$($(LOCFIND) -not -name '*_test.go' | xargs cat | wc -l)"
	@echo "test Go lines:     $$($(LOCFIND) -name '*_test.go' | xargs cat | wc -l)"
	@echo "packages:          $$($(GO) list ./... | wc -l) ($$($(GO) list ./internal/... | wc -l) under internal/)"

## trace-determinism: the event-stream replication gate — the full JSONL
## trace of every reservation mode must be byte-identical at any worker
## count and, at the full campus, chaos and overload configurations,
## from run to run; and armsim's -trace must be the campus experiment's
## stream, byte for byte.
trace-determinism:
	$(GO) test -run 'TraceDeterminism' ./internal/sim
	$(GO) test -run 'TestArmsimTraceEqualsCampusTrace' -count=1 ./cmd/armsim

## chaos: the fault-injection recovery gate — chaos scenarios run under
## the race detector, recovery invariants are audited, and the pinned
## seed-1 fault trace must not drift.
chaos:
	$(GO) test -race -run 'Chaos' ./internal/sim
	$(GO) test -race ./internal/faults

## overload: the overload-control gate — the load-ramp scenarios run
## under the race detector, the degrade-before-drop invariant is
## audited, and the pinned seed-1 overload trace must not drift.
overload:
	$(GO) test -race -run 'Overload' ./internal/sim
	$(GO) test -race ./internal/overload

## obs: the observability gate — the zero-perturbation guarantee, the
## instrument/span determinism checks, and the pinned seed-1 snapshot
## goldens, all under the race detector.
obs:
	$(GO) test -race -run 'Obs' ./internal/sim
	$(GO) test -race ./internal/obs

## obs-live: the live-plane observability gate — arming the wire
## recorders must leave the controller and node traces byte-identical
## (the zero-perturbation pin), the armed loopback run's cluster
## snapshot and span export must match the checked-in golden
## byte-for-byte, the disabled hook path must stay allocation-free,
## and the shared telemetry endpoints (armsim and armnode alike) must
## serve metrics, health, span tails and profiles correctly.
obs-live:
	$(GO) test -run 'TestLiveObs|TestDisabledPathZeroAlloc' -count=1 ./internal/testnet ./internal/obs/live
	$(GO) test -race ./internal/obs/live ./internal/telemetry
	$(GO) test -race -run 'Telemetry' ./cmd/armsim ./cmd/armnode

## arena: the strategy-seam gate — the head-to-head roster runs under
## the race detector (worker-count determinism, the pinned seed-1
## comparative snapshot, the default pair's equivalence to the plain
## campus run) alongside the strategy package's property and
## dispatch-cost tests and the rivals' explicit-rate rule held to its
## lockstep reference.
arena:
	$(GO) test -race -run 'Arena' ./internal/sim
	$(GO) test -race ./internal/strategy
	$(GO) test -race -run 'ExplicitRate' ./internal/maxmin

## testnet: the live-vs-sim oracle — the scripted campus scenario run
## over the loopback wire fabric must produce a controller trace
## byte-identical to the pure simulation, deterministic node traces,
## and a clean final audit. Socket-free (the UDP cluster test runs in
## `race` but skips under -short).
testnet:
	$(GO) test -run 'TestLoopback' -count=1 ./internal/testnet
	$(GO) test -race -count=1 ./internal/clock ./internal/testnet

## soak: the chaos-soak gate — a short deterministic soak (generated
## workload, rotating fault plans covering loss, reordering, a
## partition and a crash/restart) whose per-epoch audits must be clean
## and whose JSONL report must match the checked-in golden
## byte-for-byte. Includes the zero-cost proof that an empty netfaults
## plan leaves the loopback traces untouched.
soak:
	$(GO) test -run 'TestSoak|TestNetfaultsEmptyPlan' -count=1 ./internal/testnet

## golden: regenerate the checked-in CLI fixtures after an intentional
## output change.
golden:
	$(GO) test ./cmd/paperfigs -update
	$(GO) test ./cmd/armsim -run TestArmsimGolden -update
	$(GO) test ./internal/sim -run TestChaosTraceGolden -update-chaos
	$(GO) test ./internal/sim -run TestOverloadTraceGolden -update-overload
	$(GO) test ./internal/sim -run TestObsSnapshotGolden -update-obs
	$(GO) test ./internal/sim -run TestArenaSnapshotGolden -update-arena
	$(GO) test ./internal/testnet -run TestSoakGolden -update-soak
	$(GO) test ./internal/testnet -run TestLiveObsSnapshotGolden -update-live
