# The canonical check: what CI runs, and what a change must pass before
# merging. `make check` == the full lint gate (gofmt + vet + tixlint) +
# build + race-enabled tests + a cancellation/fault stress pass + the
# replicated-serving chaos drills + a coverage floor on the sharded
# execution layer + a short fuzz smoke over the snapshot loader + a
# five-second open-loop load smoke with the result cache enabled + the
# hot-path bench gate against the committed BENCH_10.json baseline + a vet
# and build of the separate benchmark/ module.

GO ?= go

.PHONY: check lint lint-changed tixlint vet build test race bench bench-json bench-hotpath bench-gate benchmark-build fmt-check stress chaos cover fuzz-smoke loadsmoke

check: lint build benchmark-build race stress chaos cover fuzz-smoke loadsmoke bench-gate

# The static-analysis gate: formatting, go vet, and the project's own
# analyzers (see cmd/tixlint and DESIGN.md §9 + §14). tixlint compares
# per-analyzer finding counts against the committed ratchet baseline
# (all zeros), so any new finding — at any severity — fails the gate;
# re-baseline deliberately with `go run ./cmd/tixlint -ratchet
# .tixlint-ratchet.json -ratchet-write ./...`.
lint: fmt-check vet tixlint

tixlint:
	$(GO) run ./cmd/tixlint -ratchet .tixlint-ratchet.json ./...

# Fast pre-merge scope: the whole-program analysis still runs (the
# flow-aware analyzers need every package), but only findings in files
# changed since BASE_REF (plus untracked files) are reported.
BASE_REF ?= origin/main
lint-changed:
	$(GO) run ./cmd/tixlint -changed $(BASE_REF) ./...

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

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Re-run the cancellation, resource-limit and fault-injection suites a few
# times under the race detector: these tests coordinate goroutines through
# the shared Guard (and the shard fan-out shares one Guard across worker
# goroutines), so repetition shakes out scheduling-dependent bugs. The
# shard differential-equivalence suite runs here too — its results must be
# schedule-independent by construction.
stress:
	$(GO) test -race -count=3 -run 'Cancel|Deadline|Limit|Fault|Guard|Shard' \
		./internal/exec ./internal/db ./internal/server ./internal/shard

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
# snapshots), postings.FuzzBlockDecode (corrupted block payloads and skip
# tables), and postings.FuzzMemtableMerge (merged memtable/segment views
# vs. the flat oracle): enough to catch regressions in the
# corrupted-input and merge-cursor handling without slowing CI.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz=FuzzLoad -fuzztime=10s ./internal/db
	$(GO) test -run '^$$' -fuzz=FuzzBlockDecode -fuzztime=10s ./internal/postings
	$(GO) test -run '^$$' -fuzz=FuzzBatchDecode -fuzztime=10s ./internal/postings
	$(GO) test -run '^$$' -fuzz=FuzzMemtableMerge -fuzztime=10s ./internal/postings
	$(GO) test -run '^$$' -fuzz=FuzzCacheKey -fuzztime=10s ./internal/rescache

# A five-second open-loop load smoke with the result cache on and ingest
# churn in the mix: fails on any request error, and the JSON report
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
BENCH_OUT ?= BENCH_10.json
bench-json:
	$(GO) run ./cmd/tixbench -small -articles 150 -runs 1 -shard-freq 2000 -json > $(BENCH_OUT)
	@echo "wrote $(BENCH_OUT)"

# Regenerate the hot-path baseline: both rig tiers (the 20k-doc gate tier
# and the million-document tier), with ns/op + allocs/op + bytes/op per
# method, as the committed BENCH_10.json the gate compares against. The
# 1M tier takes a few minutes; run after intentional perf changes.
bench-hotpath:
	$(GO) run ./cmd/tixbench -table hotpath -json > BENCH_10.json
	@echo "wrote BENCH_10.json"

# The perf regression gate (wired into `make check`): re-measure the
# cheap gate tier and compare against the committed baseline, normalized
# by the in-file calibration loop; fails on >10% normalized-time or
# allocs/op regression.
bench-gate:
	$(GO) run ./cmd/tixbench -gate BENCH_10.json

fmt-check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi
