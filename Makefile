# Build, verify and bench targets. `make ci` is what the GitHub Actions
# workflow runs on every push: formatting, vet, build, the full test suite
# under the race detector, the ask-identity, plan-run identity, worker-pool,
# plan-seat, session-membership, governed-entry and log-compaction tests
# twenty times over and the durable write-order test five times, fuzz
# bursts, and the Go benchmarks once.

GO ?= go

.PHONY: all build test race stress vet fmt-check census bench bench-streams chaos fuzz fuzz-smoke loc ci

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
# ask's span tree holds only its own agents, and runs of one plan id at once
# in one session each get their own step results, and closing the System
# drains every open session's running plans, and sessions closed with asks in
# flight keep no stream, nothing of theirs re-created by a late output, report
# or plan result; a session asked past its horizon of 256 asks, while its
# flow is read and its display waits resume from released offsets, answers
# each ask as its first time and reads a flow in order with a released count
# that only grows; an ask whose front-door agent or plan step fails ends at
# its failure record, which races its answer and its session's drop, within
# 100 ms of a 10 s timeout; the store's worker pool never blocks a
# chain of nested hand-offs, and gives its parked workers back at Close; and
# in the one coordinator service, a session at its plan bound holds up no
# other session, and a session's Leave waits for its own running plans only,
# and the service runs one read loop however many sessions join it, which
# Stop ends, and a plan run — memo-warm, fan-out or replanned, direct or
# through the service while its PLAN message is rendered — never writes the
# plan it runs, and a memo-warm step run 100 times, a coalesced pair among
# them, never writes the stored outputs its hits hand out;
# and a session's membership is one decision per change: of concurrent adds
# of the same agents exactly one joins, none once Close got there first, and
# the session stream records each name added once; and over HTTP a click is
# governed as an ask is, and a shed or queued ask has its root span's id from
# the moment it arrives; and concurrent writes to
# one row and to one agent are logged in the order they were applied, so a
# crash recovers what the live process ended with (fifty crash-and-reopen
# rounds a run, so five runs); and the log's own compactions, on a small
# segment, race writers through Log and through Append, and a close without
# a snapshot recovers every acknowledged write.
stress:
	$(GO) test -race -count=20 -run 'TestAskIdentity|TestConcurrentAsksOneSession|TestOnePlanIDRunsConcurrently|TestSystemCloseDrainsOpenSessions|TestCloseForgetsUnderLoad|TestAsksPastTheHorizonWhileFlowIsRead|TestChaosFailedAskEndsAtItsFailure' .
	$(GO) test -race -count=20 -run 'TestGoNeverBlocks|TestPoolIdleAndClose' ./internal/streams
	$(GO) test -race -count=20 -run 'TestSeatBoundHoldsUpOnlyItsSession|TestLeaveWaitsForItsOwnPlansOnly|TestServiceStartsAndStopsClean|TestPlanRunLeavesPayloadUnchanged|TestMemoHitsLeaveStoredOutputsUnchanged' ./internal/coordinator
	$(GO) test -race -count=20 -run 'TestDuplicateAgentRejected|TestConcurrentAddAndClose' ./internal/session
	$(GO) test -race -count=20 -run 'TestClickIsGoverned|TestShedAndQueuedAsksHaveOneID' ./internal/httpapi
	$(GO) test -race -count=5 -run 'TestDurableLogKeepsWriteOrder' .
	$(GO) test -race -count=20 -run 'TestCompactionRacesWriters' ./internal/durability

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
# Beside it the clock-read check (clockreads_test.go): a direct read of the
# machine's clock outside internal/clock and its allow-list fails, and so does
# an allow-list entry whose read is gone. And the census of stream writes
# (streamwrites_test.go): six asks, cold and memo-warm, in one session, and a
# message that no listen rule, plan intake, addressee, awaiting caller,
# ask's answer or recovery reads fails, unless its class is on that test's
# allow-list; so does an entry no unread message falls under. Then its census
# of reads after the answer: every reader of stored messages in the program
# must be on its table, which says how far back each reaches, and only the
# classes no reader but observability and the snapshot reaches once their ask
# has answered may sit on streams a session releases past its horizon.
# Verbose, so every class of message is printed with its count and readers,
# and with the readers that reach it after its answer.
census:
	$(GO) test -run 'TestCallerCensus|TestClockReads|TestStreamWrites' -count=1 -v .

# Relational-engine benchmarks, including the statement-cache comparison
# (BenchmarkPointQueryUncached vs Cached/Prepared), the zero-allocation
# tokenizer/fingerprint sweeps, and the *Compiled/*Interpreted pairs (filtered
# scan, group-by, top-k ORDER BY + LIMIT; all single-table, as the dialect
# is), whose *Interpreted side calls the test-only reference interpreter
# (internal/relational/interp_test.go) directly; then
# the streams, session and planner benchmarks (Append to one stream,
# BenchmarkAppend: its B/op is what a stream's history costs to grow, one
# chunk now and then and never a copy — run it at -benchtime 100000x; Append
# beside many sessions' worth of subscriptions, one control message into a
# session, one hand-off, Append through a real durability engine for a string, a rows-shaped and a
# directive message and from every P at once (BenchmarkAppendDurable), a
# recovery of 10 000 stream records (BenchmarkRecoverStreams), replay, the
# display wait deep into a conversation, a plan crossing a hop, an awaited
# hand-off of a task using ~16 KB of stack through Store.Go and through a
# fresh goroutine (BenchmarkHandOffDeepStack, pool and go), a
# statement result crossing one), the analytic ask's statement on the 5 000
# jobs of workload.MediumScale (BenchmarkRangeGroupBy, a range group-by through
# idx_jobs_salary at four selectivities: B/op should be the same at each), the
# coordinator's fan-out plan run one step at a time and in parallel and plans
# of many sessions at once (BenchmarkFanout*, BenchmarkMultiSessionThroughput)
# and a memo-warm one-step plan (BenchmarkWarmPlan: its B/op and allocs/op
# are the coordinator's own cost of a planned ask whose step is a memo hit),
# a step's memo key and a Do hit (internal/memo, BenchmarkComputeKey: one
# allocation, the key; BenchmarkDoHit: none), one AGENT_DONE report appended, with its outputs and with usage alone
# (internal/agent, BenchmarkReport: a typed directive, no map and no boxed
# number), a histogram observation alone and from every P and 512 sessions'
# spans recorded round-robin, each ask re-making its session's evicted span ring
# (internal/obs, BenchmarkSpanRingChurn: a re-made ring costs one ask's
# spans), a vector top-k search against a full sort (internal/vectors), the
# simulated model's classify, extract and summarize heads (internal/llm,
# BenchmarkModelHeads: the per-call random source allocates nothing) and, in
# the root package, one more session started and closed beside 512 live ones
# (BenchmarkStartSessionBesideLive, which also reports the goroutines and
# subscriptions a live session holds: 0 and 0), a memo-warm governed ask
# with the event log and flight recorder off and on
# (BenchmarkGovernedAskRecording), and the overload test's two open-loop
# phases at full length, one 2 s phase an iteration, reporting shed_ratio,
# degraded_ratio and accepted_p99_ms at 0.5x and 2x the governor's capacity
# (BenchmarkOverloadPhases).
bench:
	$(GO) test ./internal/relational/ ./internal/streams ./internal/session ./internal/planner ./internal/hragents ./internal/workload ./internal/coordinator ./internal/memo ./internal/agent ./internal/obs ./internal/vectors ./internal/llm . -run XXX -bench . -benchmem

# Twenty iterations of each streams, session, planner, relational, hragents,
# workload, coordinator, memo, agent, obs, vectors and llm benchmark (the first
# holds BenchmarkAppend, the durable append, the stream log's recovery and
# the pool's deep-stack hand-off; agent BenchmarkReport; obs
# BenchmarkSpanRingChurn; relational,
# hragents and workload the group-by, the title scan, the SQL executor ->
# query summarizer hand-off and the range group-by at workload scale; coordinator the fan-out plans and many sessions' plans at
# once and the memo-warm plan, memo the key and a hit, llm the model heads an ask's agents call) and of the root package's
# BenchmarkStartSessionBesideLive and BenchmarkGovernedAskRecording, then one
# iteration, a whole phase, of each BenchmarkOverloadPhases case: CI runs
# them so that they keep building and finishing, not to read their numbers.
bench-streams:
	$(GO) test ./internal/streams ./internal/session ./internal/planner ./internal/relational ./internal/hragents ./internal/workload ./internal/coordinator ./internal/memo ./internal/agent ./internal/obs ./internal/vectors ./internal/llm -run XXX -bench . -benchtime 20x
	$(GO) test . -run XXX -bench 'StartSessionBesideLive|GovernedAskRecording' -benchtime 20x
	$(GO) test . -run XXX -bench OverloadPhases -benchtime 1x

# Fuzz for a short burst each: the tokenizer against the old slice-building
# lexer, SQL text through the engine against the reference interpreter
# (FuzzSQLDifferential: same rows, errors and EXPLAIN strings, twin databases
# in the same state after a mutation), then NL2Q (any utterance compiles to
# SQL the engine executes), any uint64 as the parent span id a directive
# carries, with an open, ended, unknown or no ask, through Tracer.Resume
# (parented and charged by the ask, never another's), arbitrary bytes as the only log segment through recovery
# (a well-framed prefix applied, the rest cut off, the same again on a second
# recovery), and arbitrary bytes as one stream log record and as a streams
# snapshot section (FuzzStreamRecord: no panic, no allocation the input cannot
# fill, records built from the input round-trip both ways, a message's Ask
# not logged, a *planner.Plan payload and a *hragents.QueryRows output
# recover as themselves), arbitrary bytes as one relational log record and as a
# relational snapshot (FuzzRelationalRecord: no panic, no count the bytes
# cannot fill, no cell of an unknown type read as NULL), arbitrary bytes as
# one memo log record and as a memo snapshot (FuzzMemoRecord: no panic, no
# allocation the input cannot fill), and any seed and up to 4 096 draws through the simulated
# model's lazy random source against math/rand's own (FuzzLazySource: the
# same Uint64, Float64 and Intn draw for draw). Seeds under
# internal/{relational,dataplan}/testdata/fuzz are always replayed by plain
# `go test`. fuzz-smoke is the 5 s per target run of `make ci`.
fuzz:
	$(GO) test ./internal/relational/ -run FuzzTokenize -fuzz FuzzTokenize -fuzztime 30s
	$(GO) test ./internal/relational/ -run FuzzSQLDifferential -fuzz FuzzSQLDifferential -fuzztime 30s
	$(GO) test ./internal/dataplan/ -run FuzzNL2Q -fuzz FuzzNL2Q -fuzztime 30s
	$(GO) test ./internal/obs/ -run FuzzResumeParent -fuzz FuzzResumeParent -fuzztime 30s
	$(GO) test ./internal/durability/ -run FuzzRecoverSegment -fuzz FuzzRecoverSegment -fuzztime 30s
	$(GO) test ./internal/streams/ -run FuzzStreamRecord -fuzz FuzzStreamRecord -fuzztime 30s
	$(GO) test ./internal/relational/ -run FuzzRelationalRecord -fuzz FuzzRelationalRecord -fuzztime 30s
	$(GO) test ./internal/memo/ -run FuzzMemoRecord -fuzz FuzzMemoRecord -fuzztime 30s
	$(GO) test ./internal/llm/ -run FuzzLazySource -fuzz FuzzLazySource -fuzztime 30s

fuzz-smoke:
	$(GO) test ./internal/relational/ -run FuzzTokenize -fuzz FuzzTokenize -fuzztime 5s
	$(GO) test ./internal/relational/ -run FuzzSQLDifferential -fuzz FuzzSQLDifferential -fuzztime 5s
	$(GO) test ./internal/dataplan/ -run FuzzNL2Q -fuzz FuzzNL2Q -fuzztime 5s
	$(GO) test ./internal/obs/ -run FuzzResumeParent -fuzz FuzzResumeParent -fuzztime 5s
	$(GO) test ./internal/durability/ -run FuzzRecoverSegment -fuzz FuzzRecoverSegment -fuzztime 5s
	$(GO) test ./internal/streams/ -run FuzzStreamRecord -fuzz FuzzStreamRecord -fuzztime 5s
	$(GO) test ./internal/relational/ -run FuzzRelationalRecord -fuzz FuzzRelationalRecord -fuzztime 5s
	$(GO) test ./internal/memo/ -run FuzzMemoRecord -fuzz FuzzMemoRecord -fuzztime 5s
	$(GO) test ./internal/llm/ -run FuzzLazySource -fuzz FuzzLazySource -fuzztime 5s

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

# Chaos suite: every Chaos* test activates the deterministic fault injector
# (injected errors, latency, hangs or crashes at the agent, relational and
# durability sites) and asserts the system degrades instead of wedging —
# retries absorb transient faults, breakers isolate persistent ones, asks
# still answer or fail cleanly. Run under the race detector: fault paths are
# where concurrency bugs hide. A local shortcut: `make ci` does not list it,
# because `race` (go test -race ./...) already runs every Chaos* test.
chaos:
	$(GO) test -race -run Chaos ./...

ci: fmt-check vet census build race stress fuzz-smoke bench-streams
