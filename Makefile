# Build, verify and bench targets. `make ci` is what the GitHub Actions
# workflow runs on every push: formatting, vet, build, the full test suite
# under the race detector, and the ask-identity and worker-pool tests twenty
# times over.

GO ?= go

.PHONY: all build test race stress vet fmt-check census bench bench-smoke bench-streams chaos fuzz fuzz-smoke loc ci

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# The tests whose failure depends on the schedule, twenty times under the race
# detector: every answer of asks interleaved at zero think time — on many
# sessions, and two at once on one — is the asking utterance's own, and each
# ask's span tree holds only its own agents; and the store's worker pool never
# blocks a chain of nested hand-offs, and gives its parked workers back at
# Close.
stress:
	$(GO) test -race -count=20 -run 'TestAskIdentity|TestConcurrentAsksOneSession' .
	$(GO) test -race -count=20 -run 'TestGoNeverBlocks|TestPoolIdleAndClose' ./internal/streams

vet:
	$(GO) vet ./...

fmt-check:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

# The caller census (census_test.go): type-checks the whole module from source
# and fails on a func or method outside benchmark/ and examples/ that only
# tests call (or nothing does) and that is not on the test's allow-list, or on
# an allow-list entry that has gained a caller. Verbose, so the count of every
# kind of declared name is printed. `go test ./...` runs it too; -short skips it.
census:
	$(GO) test -run TestCallerCensus -count=1 -v .

# Relational-engine benchmarks, including the statement-cache comparison
# (BenchmarkPointQueryUncached vs Cached/Prepared), the zero-allocation
# tokenizer/fingerprint sweeps, and the *Compiled/*Interpreted pairs (filtered
# scan, group-by, top-k ORDER BY + LIMIT; all single-table, as the dialect
# is), whose *Interpreted side calls the test-only reference interpreter
# (internal/relational/interp_test.go) directly; then
# the streams, session and planner benchmarks (Append beside many sessions'
# worth of subscriptions, one control message into a session, one hand-off,
# Append through a real durability engine for a string, a rows-shaped and a
# directive message and from every P at once (BenchmarkAppendDurable), a
# recovery of 10 000 stream records (BenchmarkRecoverStreams), replay, the
# display wait deep into a conversation, a plan crossing a hop, an awaited
# hand-off of a task using ~16 KB of stack through Store.Go and through a
# fresh goroutine (BenchmarkHandOffDeepStack, pool and go), a
# statement result crossing one), the analytic ask's statement on the 5 000
# jobs of workload.MediumScale (BenchmarkRangeGroupBy, a range group-by through
# idx_jobs_salary at four selectivities: B/op should be the same at each) and,
# in the root package, one more session started and closed beside 512 live
# ones (BenchmarkStartSessionBesideLive, which also reports the goroutines and
# subscriptions a live session holds).
bench:
	$(GO) test ./internal/relational/ ./internal/streams ./internal/session ./internal/planner ./internal/hragents ./internal/workload . -run XXX -bench . -benchmem

# Twenty iterations of each streams, session, planner, relational, hragents
# and workload benchmark (the first holds the durable append, the stream
# log's recovery and the pool's deep-stack hand-off; the last three the
# group-by, the title scan, the SQL
# executor -> query summarizer hand-off and the range group-by at workload
# scale) and of the root package's BenchmarkStartSessionBesideLive:
# CI runs them so that they keep building and finishing, not to read their
# numbers.
bench-streams:
	$(GO) test ./internal/streams ./internal/session ./internal/planner ./internal/relational ./internal/hragents ./internal/workload . -run XXX -bench . -benchtime 20x

# Fuzz for a short burst each: the tokenizer against the old slice-building
# lexer, SQL text through the engine against the reference interpreter
# (FuzzSQLDifferential: same rows, errors and EXPLAIN strings, twin databases
# in the same state after a mutation), then NL2Q (any utterance compiles to
# SQL the engine executes), any string as a trace_parent token, with an open,
# ended, unknown or no ask, through Tracer.Resume (parented and charged by the
# ask, never another's), arbitrary bytes as the only log segment through recovery
# (a well-framed prefix applied, the rest cut off, the same again on a second
# recovery), and arbitrary bytes as one stream log record and as a streams
# snapshot section (FuzzStreamRecord: no panic, no allocation the input cannot
# fill, records built from the input round-trip both ways, a message's Ask
# not logged). Seeds under
# internal/{relational,dataplan}/testdata/fuzz are always replayed by plain
# `go test`. fuzz-smoke is the 5 s per target run of `make ci`.
fuzz:
	$(GO) test ./internal/relational/ -run FuzzTokenize -fuzz FuzzTokenize -fuzztime 30s
	$(GO) test ./internal/relational/ -run FuzzSQLDifferential -fuzz FuzzSQLDifferential -fuzztime 30s
	$(GO) test ./internal/dataplan/ -run FuzzNL2Q -fuzz FuzzNL2Q -fuzztime 30s
	$(GO) test ./internal/obs/ -run FuzzResumeToken -fuzz FuzzResumeToken -fuzztime 30s
	$(GO) test ./internal/durability/ -run FuzzRecoverSegment -fuzz FuzzRecoverSegment -fuzztime 30s
	$(GO) test ./internal/streams/ -run FuzzStreamRecord -fuzz FuzzStreamRecord -fuzztime 30s

fuzz-smoke:
	$(GO) test ./internal/relational/ -run FuzzTokenize -fuzz FuzzTokenize -fuzztime 5s
	$(GO) test ./internal/relational/ -run FuzzSQLDifferential -fuzz FuzzSQLDifferential -fuzztime 5s
	$(GO) test ./internal/dataplan/ -run FuzzNL2Q -fuzz FuzzNL2Q -fuzztime 5s
	$(GO) test ./internal/obs/ -run FuzzResumeToken -fuzz FuzzResumeToken -fuzztime 5s
	$(GO) test ./internal/durability/ -run FuzzRecoverSegment -fuzz FuzzRecoverSegment -fuzztime 5s
	$(GO) test ./internal/streams/ -run FuzzStreamRecord -fuzz FuzzStreamRecord -fuzztime 5s

# Go line counts outside benchmark/, non-test and test files apart, each split
# into code, comment and blank lines (a line holding code and a comment is
# code): the accounting a PR that claims to remove code reports. Run it on the
# parent checkout and on the change and subtract.
loc:
	@find . -name '*.go' -not -path './benchmark/*' -not -path './.bench_build/*' | sort | xargs awk ' \
		FNR == 1 { block = 0; kind = (FILENAME ~ /_test\.go$$/) ? "test" : "non-test" } \
		{ line = $$0; sub(/^[ \t]+/, "", line) } \
		block { n[kind, "comment"]++; if (line ~ /\*\//) block = 0; next } \
		line == "" { n[kind, "blank"]++; next } \
		line ~ /^\/\// { n[kind, "comment"]++; next } \
		line ~ /^\/\*/ { n[kind, "comment"]++; if (line !~ /\*\//) block = 1; next } \
		{ n[kind, "code"]++ } \
		END { \
			for (k = 1; k <= 2; k++) { \
				kind = (k == 1) ? "non-test" : "test"; \
				c = n[kind, "code"]; m = n[kind, "comment"]; b = n[kind, "blank"]; \
				printf "%-8s Go outside benchmark/: %6d lines = %6d code + %6d comment + %6d blank\n", kind, c + m + b, c, m, b \
			} \
		}'

# Smoke run of the tables that enforce an invariant nothing else does, in
# short mode; each is also written as machine-readable bench/BENCH_<ID>.json
# (archived by CI). A6 (step-result memoization) fails on a warm run that
# re-executes, a concurrent identical workload that does not coalesce, or an
# invalidation that is not selective. A8 (durability) fails on a crash restart
# that loses rows or does not replay every committed write, a warm start that
# replays anything after its snapshot, or a restarted process whose repeated
# ask misses memo. A11 drives governed asks with an open-loop multi-tenant
# workload at 0.5x and 2x admission capacity: baseline sheds <= 20%, overload
# sheds some-but-not-everything, degraded answers are marked and
# freshness-valid, no goroutines leak. A12 drives the same workload over real
# HTTP against the live blueprintd handler and checks the flight recorder
# explains the overload: exemplars carry events and deep span trees, the
# scraped per-tenant SLO burn exceeds 1 under overload and the baseline, rings
# stay bounded. The wall-clock floors (A6 >= 5x warm ask, A8 >= 5x
# snapshot-vs-replay, A11 accepted-p99 ceiling, A12 <= 5% recorder cost) are
# enforced by benchharness without -short only. How fast an ask and each layer
# under it is, is benchmark/'s to say (BENCHMARK.json).
bench-smoke:
	$(GO) run ./cmd/benchharness -fig A6 -short -json bench
	$(GO) run ./cmd/benchharness -fig A8 -short -json bench
	$(GO) run ./cmd/benchharness -fig A11 -short -json bench
	$(GO) run ./cmd/benchharness -fig A12 -short -json bench

# Chaos suite: every Chaos* test activates the deterministic fault injector
# (injected errors, latency, hangs or crashes at the agent, relational and
# durability sites) and asserts the system degrades instead of wedging —
# retries absorb transient faults, breakers isolate persistent ones, asks
# still answer or fail cleanly. Run under the race detector: fault paths are
# where concurrency bugs hide. A local shortcut: `make ci` does not list it,
# because `race` (go test -race ./...) already runs every Chaos* test.
chaos:
	$(GO) test -race -run Chaos ./...

ci: fmt-check vet census build race stress fuzz-smoke bench-smoke bench-streams
