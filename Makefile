# Build, verify and bench targets. `make ci` is what the GitHub Actions
# workflow runs on every push: formatting, vet, build, and the full test
# suite under the race detector.

GO ?= go

.PHONY: all build test race vet fmt-check bench bench-smoke bench-streams chaos fuzz ci

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

fmt-check:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

# Relational-engine benchmarks, including the statement-cache comparison
# (BenchmarkPointQueryUncached vs Cached/Prepared), the zero-allocation
# tokenizer/fingerprint sweeps, and the shape-vs-exact keyed cache pair; then
# the streams, session and planner benchmarks (Append beside many sessions'
# worth of subscriptions, one control message into a session, one hand-off,
# replay, the display wait deep into a conversation, a plan crossing a hop, a
# statement result crossing one).
bench:
	$(GO) test ./internal/relational/ ./internal/streams ./internal/session ./internal/planner ./internal/hragents -run XXX -bench . -benchmem
	$(GO) run ./cmd/benchharness -fig A9

# Twenty iterations of each streams, session, planner, relational and
# hragents benchmark (the last two hold the group-by, the title scan and the
# SQL executor -> query summarizer hand-off): CI runs them so that they keep
# building and finishing, not to read their numbers.
bench-streams:
	$(GO) test ./internal/streams ./internal/session ./internal/planner ./internal/relational ./internal/hragents -run XXX -bench . -benchtime 20x

# Fuzz for a short burst each: the tokenizer against the old slice-building
# lexer, then NL2Q (any utterance compiles to SQL the engine executes). Seeds
# under internal/{relational,dataplan}/testdata/fuzz are always replayed by
# plain `go test`.
fuzz:
	$(GO) test ./internal/relational/ -run FuzzTokenize -fuzz FuzzTokenize -fuzztime 30s
	$(GO) test ./internal/dataplan/ -run FuzzNL2Q -fuzz FuzzNL2Q -fuzztime 30s

# Smoke run for the concurrency/reuse/durability layers: regenerates the A5
# table (concurrent DAG scheduler fan-out speedup + multi-session
# throughput), the A6 table (step-result memoization: repeated-ask speedup,
# cross-session single-flight dedup, invalidation), the A7 table (relational
# plan compiler: compiled-vs-interpreted scan/join/group-by) and the A8
# table (durability: crash replay vs snapshot restore, warm memo across
# restart) in short mode. A6 and A8 enforce their own invariants — a warm
# run that re-executes (hit-rate collapse), a concurrent identical workload
# that does not coalesce (dedup loss), a crash restart that loses rows, or a
# restarted process whose repeated ask misses memo (warm-memo loss) makes
# the run fail; A7's >= 2x speedup/allocs floors and A8's >= 5x
# snapshot-vs-replay floor are enforced in full mode and reported here, as
# are A9's shape-cache floors (>= 90% hit rate, >= 3x over exact keying on
# literal-inlined statements) and A10's telemetry overhead ceiling
# (instrumented asks within 5% of uninstrumented, full mode; the >= 4
# span-component floor is enforced in every mode). A11 drives governed asks
# with an open-loop multi-tenant workload at 0.5x and 2x admission capacity
# and enforces its own floors in every mode: baseline sheds <= 20%, overload
# sheds some-but-not-everything, degraded answers are marked and
# freshness-valid, and no goroutines leak. A12 drives the same open-loop
# workload over real HTTP against the live blueprintd handler and checks
# the flight recorder explains the overload: exemplars carry events and
# deep span trees, the scraped per-tenant SLO burn exceeds 1 under overload
# and the baseline, rings stay bounded, and the event log + recorder cost
# <= 5% on a governed ask (full mode). Each table is also written as
# machine-readable bench/BENCH_<ID>.json (archived by CI). CI runs this on
# every push so regressions surface immediately.
bench-smoke:
	$(GO) run ./cmd/benchharness -fig A5 -short -json bench
	$(GO) run ./cmd/benchharness -fig A6 -short -json bench
	$(GO) run ./cmd/benchharness -fig A7 -short -json bench
	$(GO) run ./cmd/benchharness -fig A8 -short -json bench
	$(GO) run ./cmd/benchharness -fig A9 -short -json bench
	$(GO) run ./cmd/benchharness -fig A10 -short -json bench
	$(GO) run ./cmd/benchharness -fig A11 -short -json bench
	$(GO) run ./cmd/benchharness -fig A12 -short -json bench

# Chaos suite: every Chaos* test activates the deterministic fault injector
# (injected errors, latency, hangs or crashes at the agent, relational and
# durability sites) and asserts the system degrades instead of wedging —
# retries absorb transient faults, breakers isolate persistent ones, asks
# still answer or fail cleanly. Run under the race detector: fault paths are
# where concurrency bugs hide.
chaos:
	$(GO) test -race -run Chaos ./...

ci: fmt-check vet build race chaos bench-smoke bench-streams
