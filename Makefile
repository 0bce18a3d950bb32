# Development entry points. `make verify` is the tier-1 gate — CI and
# contributors run the same thing.

GO ?= go

.PHONY: verify vet doc-lint build test race race-full smoke gobench results results-check audit fuzz daemon perf-gate

## verify: vet + doc-lint + build + full test suite + CLI smoke run (tier-1 gate)
verify: vet doc-lint build test smoke

## vet: go vet, then fail if gofmt would change any Go file (the
## benchmark's build directory, which may hold another checkout, is
## skipped)
vet:
	$(GO) vet ./...
	@unformatted="$$(gofmt -l $$(find . -name '*.go' -not -path './.bench_build/*'))"; \
	if [ -n "$$unformatted" ]; then echo "gofmt -l lists:"; echo "$$unformatted"; exit 1; fi

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

## perf-gate: the perf regression gate, a same-host A/B of the
## benchsuite benchmark against the parent commit. HEAD^1 is checked
## out in a git worktree under the git-ignored .bench_build/; each of 5
## rounds runs a 2-second-window suite on both trees with the same seed,
## alternating which tree goes first. Each side's runs are joined into
## one suite record and `benchsuite -suite-compare` judges the working
## tree against the parent: it exits 1 when any workload reads worse
## than the parent by more than its BENCHMARK.json bound, or fails a
## larger share of its operations. About 5 minutes on 2 cores.
perf-gate:
	@set -u; gate="$(CURDIR)/.bench_build/perf-gate"; parent="$$gate/parent"; \
	git worktree remove --force "$$parent" 2>/dev/null; rm -rf "$$gate"; git worktree prune; \
	mkdir -p "$$gate" && git worktree add --detach "$$parent" HEAD^1 || exit 1; \
	trap 'git worktree remove --force "$$parent"' EXIT; \
	for i in 1 2 3 4 5; do \
	  order="parent change"; [ $$((i % 2)) -eq 0 ] && order="change parent"; \
	  for side in $$order; do \
	    tree="$(CURDIR)"; [ $$side = parent ] && tree="$$parent"; \
	    echo "perf-gate: round $$i/5, $$side"; \
	    bash "$$tree/benchsuite/run.sh" -suite -runs 1 -seed $$i -seconds 2 \
	      -out "$$gate/$$side-$$i.json" >> "$$gate/$$side.log" 2>&1 || \
	      echo "perf-gate: a $$side run failed, see $$gate/$$side.log"; \
	  done; \
	done; \
	for side in parent change; do \
	  python3 -c 'import json, sys; recs = [json.load(open(p)) for p in sys.argv[2:]]; \
	    recs[0]["runs"] = [r for rec in recs for r in rec["runs"]]; \
	    json.dump(recs[0], open(sys.argv[1], "w"), indent=2)' \
	    "$$gate/$$side.json" "$$gate"/$$side-?.json || exit 1; \
	done; \
	bash benchsuite/run.sh -suite-compare "$$gate/parent.json" "$$gate/change.json" > "$$gate/compare.txt"; \
	code=$$?; cat "$$gate/compare.txt"; exit $$code

## gobench: package micro-benchmarks via go test: the experiment
## benchmarks at the root, the cycle loop's per-layer ones (SM tick,
## DRAM channel, cache access, token table) and the checkpoint round
## trip
gobench:
	$(GO) test -bench=. -benchmem . ./internal/smcore ./internal/dram ./internal/cache ./internal/sim

## results: regenerate the committed results/ snapshot (see README)
results:
	$(GO) run ./cmd/experiments -exp all -cycles 24000 -format md -out results -progress

## results-check: render the `make results` sweep into a temporary
## directory and diff it against the committed results/ (whose
## README.md is written by hand); CI's results job runs this. About
## 200 s on 2 cores.
results-check:
	@out="$$(mktemp -d)"; trap 'rm -rf "$$out"' EXIT; \
	$(GO) run ./cmd/experiments -exp all -cycles 24000 -format md -out "$$out" -jobs 2 && \
	diff -r -x README.md results "$$out"

## audit: run every simulation with the invariant auditors enabled
## (request conservation, MSHR accounting, queue bounds, metadata
## writebacks) — slower, but
## any bookkeeping bug aborts the sweep with an *AuditError.
audit:
	$(GO) test -run 'TestAuditorsPassOnCatalogue|TestWatchdog' ./internal/sim
	$(GO) run ./cmd/experiments -exp fig3 -cycles 8000 -audit -progress > /dev/null

## fuzz: short fuzzing smoke over the secmem codecs, the XEX direct
## cipher, the machine-state decoder, the run-knob query decoder and
## the store envelope parser
fuzz:
	$(GO) test -run Fuzz -fuzz FuzzCounterModeRoundTrip -fuzztime 10s ./internal/secmem
	$(GO) test -run Fuzz -fuzz FuzzDirectCipherRoundTrip -fuzztime 10s ./internal/crypto
	$(GO) test -run Fuzz -fuzz FuzzDecodeState -fuzztime 10s -fuzzminimizetime 1s ./internal/sim
	$(GO) test -run Fuzz -fuzz FuzzRunQuery -fuzztime 10s .
	$(GO) test -run Fuzz -fuzz FuzzEnvelopeDecode -fuzztime 10s ./internal/envelope
