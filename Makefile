# The canonical check: what CI runs, and what a change must pass before
# merging. `make check` runs, in order:
#   lint             gofmt + go vet + tixlint, failing on any finding
#   build            the root module
#   benchmark-build  vet and build of the separate benchmark/ module
#   benchmark-test   the benchmark/ module's tests under -race
#   race             every test under the race detector
#   stress, chaos    the cancellation/fault and replicated-serving drills
#   cover            the 70% coverage floor on internal/shard
#   fuzz-smoke       ten seconds per fuzz target
#   loadsmoke        five seconds of open-loop load with the result cache on
# The performance gate is part of the tests: internal/bench's golden suite
# pins the paper's per-operator access counts and the hot paths'
# allocation ceilings (see internal/bench/golden_test.go).

GO ?= go

.PHONY: check lint tixlint vet build test race bench bench-json bench-hotpath bench-topk bench-query1 benchmark-build benchmark-test fmt-check stress chaos cover fuzz-smoke loadsmoke

check: lint build benchmark-build benchmark-test race stress chaos cover fuzz-smoke loadsmoke

# The static-analysis gate: formatting, go vet, and the project's own
# analyzers (see cmd/tixlint and DESIGN.md §9) over the root module and
# the benchmark/ module. tixlint runs the full registry and exits 1 on
# any finding, including a suppression directive that no longer matches
# a finding.
lint: fmt-check vet tixlint

tixlint:
	$(GO) run ./cmd/tixlint ./...
	$(GO) run ./cmd/tixlint -C benchmark ./...

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

# benchmark/ is its own module (BENCHMARK.json runs it through
# benchmark/run.sh), so `go build ./...` never compiles it: vet and build
# it here, so an internal API change that breaks it fails in CI rather
# than at measurement time.
benchmark-build:
	$(GO) -C benchmark vet . && $(GO) -C benchmark build -o /dev/null .

# The benchmark module's own tests, which smoke-run every workload
# through the socket.
benchmark-test:
	$(GO) -C benchmark test -race .

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Re-run the cancellation, resource-limit and fault-injection suites a few
# times under the race detector: these tests coordinate goroutines through
# the shared Guard (and the shard fan-out shares one Guard across worker
# goroutines), so repetition shakes out scheduling-dependent bugs. The
# shard differential-equivalence suite runs here too — its results must be
# schedule-independent by construction — and so do the top-k suites,
# including pruned reads racing ingest, seals and background folds, and
# the result-cache suites: term-keyed reads racing writes, and the
# ordering rule that a term's generation is never ahead of the snapshot
# a reader takes after observing it (DESIGN.md §13). The resident-list
# suites run here too: concurrent readers share one list's resident
# postings, which no cursor may ever write (DESIGN.md §15).
stress:
	$(GO) test -race -count=3 -run 'Cancel|Deadline|Limit|Fault|Guard|Shard|TopK|Cache|Coherent|TermsGeneration|Resident' \
		./internal/exec ./internal/db ./internal/index ./internal/postings ./internal/rescache ./internal/server ./internal/shard

# The replicated-serving chaos drills (DESIGN.md §12): a 3-replica fleet
# with one replica killed or delayed mid-traffic must show zero
# client-visible errors, the full breaker lifecycle in metrics, and
# bounded tail latency; ingestion races injected faults and client
# disconnects without leaving partial index state. Always under -race —
# the fleet's hedging and loser-draining are racy by construction.
chaos:
	$(GO) test -race -count=1 -run 'TestChaos|TestIngest' \
		./internal/fleet ./internal/server

# Coverage floor for the sharded execution layer: the differential +
# persistence + stress suites must keep internal/shard above 70%.
cover:
	@$(GO) test -cover ./internal/shard | awk '{ \
		for (i = 1; i <= NF; i++) if ($$i ~ /^[0-9.]+%$$/) pct = substr($$i, 1, length($$i)-1); \
		print; \
		if (pct + 0 < 70) { print "coverage below 70% floor for internal/shard"; exit 1 } }'

# Ten seconds of coverage-guided fuzzing each over db.Load (corrupted
# segment snapshots), shard.Load (corrupted sharded containers, the one
# format the binaries open), postings.FuzzBlockDecode (corrupted block
# payloads and skip tables), postings.FuzzBatchDecode (batch vs. scalar
# block decode), postings.FuzzMemtableMerge (merged views over ordered parts —
# document-disjoint memtable runs and segments — vs. the flat oracle),
# rescache.FuzzCacheKey, xmltree.FuzzXMLString (the append-style XML
# writer vs. the encoding/xml-based reference, plus the parse round trip),
# xq.FuzzQuery (Parse → Compile → plan String → Eval under a small
# budget; Compile and Eval must reject the same queries),
# server.FuzzReplyEncoding (the append-style reply encoder vs.
# encoding/json on arbitrary strings and float64 bit patterns) and
# server.FuzzHandlerBodies (arbitrary bodies posted to /terms, /phrase and
# /query on a cached server: typed errors only, and a 2xx reply equal to
# its cached repeat and to an uncached server's): enough to
# catch regressions in the corrupted-input, merge-cursor, serialization
# and query front-end handling without slowing CI.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz=FuzzLoad -fuzztime=10s ./internal/db
	$(GO) test -run '^$$' -fuzz=FuzzLoad -fuzztime=10s ./internal/shard
	$(GO) test -run '^$$' -fuzz=FuzzBlockDecode -fuzztime=10s ./internal/postings
	$(GO) test -run '^$$' -fuzz=FuzzBatchDecode -fuzztime=10s ./internal/postings
	$(GO) test -run '^$$' -fuzz=FuzzMemtableMerge -fuzztime=10s ./internal/postings
	$(GO) test -run '^$$' -fuzz=FuzzCacheKey -fuzztime=10s ./internal/rescache
	$(GO) test -run '^$$' -fuzz=FuzzXMLString -fuzztime=10s ./internal/xmltree
	$(GO) test -run '^$$' -fuzz=FuzzQuery -fuzztime=10s ./internal/xq
	$(GO) test -run '^$$' -fuzz=FuzzReplyEncoding -fuzztime=10s ./internal/server
	$(GO) test -run '^$$' -fuzz=FuzzHandlerBodies -fuzztime=10s ./internal/server

# A five-second open-loop load smoke through the server's handler tree
# with the reply cache on and ingest churn in the mix: fails on any
# request error or when no request hit the cache, and the JSON report
# (tixload.json) is the artifact CI uploads for trend diffing.
loadsmoke:
	$(GO) run ./cmd/tixload -docs 60 -qps 400 -duration 5s \
		-cache-bytes 4194304 -ingest-every 100 -json tixload.json
	@echo "wrote tixload.json"

# Quick perf snapshot in the machine-readable format (see README).
bench:
	$(GO) run ./cmd/tixbench -small -table 1 -runs 1 -json

# The perf-trajectory artifact: every table (including the index
# memory/decode accounting and the ingest experiment) on the small
# corpus, as JSON. CI uploads the file so successive PRs can be diffed.
# The shards experiment's extra planted pair is scaled to what 150
# articles can absorb (the default 150,000 only fits the full corpus).
# Override BENCH_OUT to write a different trajectory file.
BENCH_OUT ?= bench-tables.json
bench-json:
	$(GO) run ./cmd/tixbench -small -articles 150 -runs 1 -shard-freq 2000 -json > $(BENCH_OUT)
	@echo "wrote $(BENCH_OUT)"

# The exec-layer timing table: both hot-path rig tiers (20k and 1M
# documents) with ns/op, allocs/op and bytes/op per method. The 1M tier
# takes a few minutes. Timings gate nothing; CI uploads the file.
bench-hotpath:
	$(GO) run ./cmd/tixbench -table hotpath -json > bench-hotpath.json
	@echo "wrote bench-hotpath.json"

# The top-k layer numbers, each with ns/op, allocs/op and docs/req (mean
# DocsEvaluated): internal/bench's BenchmarkTopKCommon replays
# /terms-shaped (simple, k = 100) and complex top-k requests over
# corpus-common words on the gate tier after live churn, as wire-churn
# sends them; BenchmarkTopKSparse runs wire-cold's two /terms shapes over
# the gate tier's sparse pair (simple at k = 100, complex at k = 10).
# Timings gate nothing.
bench-topk:
	$(GO) test ./internal/bench -run '^$$' -bench 'TopKCommon|TopKSparse' -benchtime 2000x

# The paper's Query 1 as a /query request runs it, over the 300-article
# corpus wire-cold queries (bench.Query1DB): internal/server's
# BenchmarkQuery1 times db.EvalQuery ("eval") and the reply encoding
# ("reply": each result's XML appended into the reused encoder's scratch
# by xmltree.AppendXML, then quoted), with ns/op and allocs/op. Timings
# gate nothing.
bench-query1:
	$(GO) test ./internal/server -run '^$$' -bench 'Query1' -benchtime 500x

fmt-check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi
