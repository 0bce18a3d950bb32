# Development entry points. `make verify` is the tier-1 gate — CI and
# contributors run the same thing.

GO ?= go

.PHONY: verify vet doc-lint build test race race-full smoke bench gobench results audit fuzz daemon perf-gate

## verify: vet + doc-lint + build + full test suite + CLI smoke run (tier-1 gate)
verify: vet doc-lint build test smoke

vet:
	$(GO) vet ./...

## doc-lint: every package documented; concurrency-sensitive packages
## must state their concurrency/aliasing contract (see cmd/doclint)
doc-lint:
	$(GO) run ./cmd/doclint

build:
	$(GO) build ./...

test:
	$(GO) test ./...

## race: concurrency suite under the race detector (short cycle budget)
race:
	$(GO) test -race -short ./...

## race-full: the whole suite under the race detector (CI runs this on
## a weekly schedule; expect tens of minutes)
race-full:
	$(GO) test -race ./...

## daemon: serve results over HTTP with a local persistent cache
## (catalogue, ad-hoc runs, experiment tables; see README)
daemon:
	$(GO) run ./cmd/secmemd -addr localhost:8080 -cache-dir .cache/results

## smoke: fastest end-to-end CLI exercise (static table, no simulation)
smoke:
	$(GO) run ./cmd/experiments -exp table1

## bench: tracked simulator-throughput baseline — measures cycles/sec
## and steady-state allocations on a fixed scheme x benchmark grid
## (including sharded @s4 points on the parallel partition engine) and
## writes BENCH_PR9.json with the PR6 reference embedded.
bench:
	$(GO) run ./cmd/perfbench -baseline BENCH_PR6.json -out BENCH_PR9.json

## perf-gate: quick perfbench run diffed against the committed
## BENCH_PR9.json baseline — exits nonzero when any case regresses
## past the threshold (the CI regression gate; thresholds are loose
## because baselines come from a different host).
perf-gate:
	$(GO) run ./cmd/perfbench -quick -out /tmp/perfgate.json -compare BENCH_PR9.json -compare-threshold 0.25

## gobench: package micro-benchmarks via go test
gobench:
	$(GO) test -bench=. -benchmem

## results: regenerate the committed results/ snapshot (see README)
results:
	$(GO) run ./cmd/experiments -exp all -cycles 24000 -format md -out results -progress

## audit: run every simulation with the invariant auditors enabled
## (request conservation, MSHR accounting, queue bounds) — slower, but
## any bookkeeping bug aborts the sweep with an *AuditError.
audit:
	$(GO) test -run 'TestAuditorsPassOnCatalogue|TestWatchdog' ./internal/sim
	$(GO) run ./cmd/experiments -exp fig3 -cycles 8000 -audit -progress > /dev/null

## fuzz: short fuzzing smoke over the secmem codecs and the XEX direct cipher
fuzz:
	$(GO) test -run Fuzz -fuzz FuzzCounterModeRoundTrip -fuzztime 10s ./internal/secmem
	$(GO) test -run Fuzz -fuzz FuzzDirectCipherRoundTrip -fuzztime 10s ./internal/crypto
