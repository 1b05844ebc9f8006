GO ?= go

.PHONY: all build test vet lint fairvet-selfcheck race bench bench-smoke bench-check fuzz-smoke bench-e2e-smoke

all: lint build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# lint is the full static gate: formatting, go vet, and the repo's own
# fairvet suite (determinism / atomic-field / context-flow / CLI-exit /
# float-equality contracts — see DESIGN.md "Statically enforced
# contracts"). A finding exits nonzero; suppress only with a justified
# `//fairvet:ignore <pass> -- <reason>` marker.
lint: vet
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "files need gofmt:"; echo "$$out"; exit 1; fi
	$(GO) run ./cmd/fairvet ./...

# fairvet-selfcheck proves the linter still bites: the selfcheck
# fixture seeds one known violation per pass, and each pass is run
# alone against it — a pass that accepts the fixture, or fires without
# naming itself in the finding, has gone blind.
fairvet-selfcheck:
	@$(GO) build -o .fairvet-selfcheck-bin ./cmd/fairvet
	@status=0; \
	for p in nodeterminism atomicfield ctxflow cliexit floateq lockcheck errflow hotalloc; do \
		out=$$(./.fairvet-selfcheck-bin -passes $$p ./internal/analysis/testdata/src/selfcheck 2>&1); \
		if [ $$? -eq 0 ]; then \
			echo "pass $$p accepted the seeded-violation fixture; it has gone blind"; status=1; \
		elif ! echo "$$out" | grep -q "\[$$p\]"; then \
			echo "pass $$p failed the fixture without a [$$p] finding:"; echo "$$out"; status=1; \
		fi; \
	done; \
	rm -f .fairvet-selfcheck-bin; \
	if [ $$status -eq 0 ]; then echo "fairvet self-check ok: every pass still detects its seeded violation"; fi; \
	exit $$status

# race runs every concurrency-sensitive suite under the race detector —
# the single source of truth for what CI exercises with -race. The -run
# filters keep the expensive packages scoped to their concurrent paths.
race:
	$(GO) test -race ./internal/engine ./internal/goldencase
	$(GO) test -race ./internal/core -run 'TestParallelSweep|TestAggregateKernelParity|TestEmptyClusterRepair|TestDeltaMemo|FuzzFitContracts'
	$(GO) test -race ./internal/kmeans ./internal/zgya
	$(GO) test -race ./internal/stats
	$(GO) test -race ./internal/coreset ./internal/pipeline ./internal/dataset
	$(GO) test -race ./internal/core -run 'TestWeighted|TestEvaluateObjectiveWeighted|TestRunWeighted'
	$(GO) test -race ./internal/model ./internal/serve
	$(GO) test -race ./internal/load
	$(GO) test -race ./internal/telemetry
	$(GO) test -race ./internal/cli ./cmd/benchguard ./cmd/fairserved
	$(GO) test -race ./internal/experiments -run 'TestRunSuiteShapes|TestLoadAdultCached'

# bench records the sweep/kernel perf trajectory for this checkout as a
# raw `go test -bench -json` event stream, so future PRs can diff
# ns/op. BENCH_sweep.json is the frozen pre-engine baseline (PR 1);
# BENCH_engine.json is re-recorded by this target and must stay within
# 5% of it on BenchmarkSweep/BenchmarkBestMove. BENCH_serve.json
# records batch-assign serving throughput across micro-batch sizes and
# worker counts (BenchmarkServe, 4096 Adult-shaped rows per op at
# k=15), plus the BenchmarkServeTelemetry off/on pair — the same
# workload without and with span tracing — which bench-check compares
# against each other.
# BENCH_kernels.json is the frozen PR 7 baseline for the pruned
# nearest-centroid kernels (BenchmarkLloyd kernel={pruned,full} and
# the BenchmarkServe workers×batch grid + kernel k-sweep); it is NOT
# re-recorded by this target — `make bench-check` diffs fresh
# recordings against it.
# Guarded recordings use -count 3: benchguard compares the minimum
# ns/op across counts (the repeatable floor), which is what keeps a
# ±5% bar meaningful on a shared box where CPU steal inflates single
# runs by 10%+.
bench:
	$(GO) test ./internal/core ./internal/kmeans -run '^$$' -bench 'BenchmarkSweep|BenchmarkBestMove|BenchmarkRunAdult|BenchmarkLloyd' -benchtime 1s -count 3 -json > BENCH_engine.json
	$(GO) test ./internal/serve -run '^$$' -bench 'BenchmarkServe' -benchtime 1s -count 3 -json > BENCH_serve.json
	$(GO) test ./internal/stats -run '^$$' -bench 'BenchmarkDot|BenchmarkSqDist|BenchmarkZipf|BenchmarkNearest' -benchtime 1s

# bench-check guards the recorded perf trajectory: after `make bench`,
# diff the fresh recordings against the frozen baselines (exit 2 on
# regression). BENCH_sweep.json froze the pre-engine sweep kernels
# (PR 1) and holds at ±5%; BENCH_kernels.json froze the pruned Lloyd +
# serving kernels (PR 7) and gets ±15%, because on the 1-CPU shared
# reference box the min-of-3 floor of the Lloyd/serve benchmarks still
# drifts ±10% between back-to-back no-op recordings (measured while
# freezing the baseline) — a genuine pruning regression (losing the
# 1.5–2× win at k=150) blows far past 15%, noise does not.
bench-check:
	$(GO) run ./cmd/benchguard -baseline BENCH_sweep.json -current BENCH_engine.json -match 'BenchmarkSweep/|BenchmarkBestMove/' -tol 0.05
	$(GO) run ./cmd/benchguard -baseline BENCH_kernels.json -current BENCH_engine.json -match 'BenchmarkLloyd/' -tol 0.15
	$(GO) run ./cmd/benchguard -baseline BENCH_kernels.json -current BENCH_serve.json -match 'BenchmarkServe/' -tol 0.15
	$(GO) run ./cmd/benchguard -baseline BENCH_serve.json -current BENCH_serve.json -match 'BenchmarkServeTelemetry/telemetry=off/' -rename-from 'telemetry=off' -rename-to 'telemetry=on' -tol 0.05

# bench-smoke just proves the benchmarks still compile and run (CI).
bench-smoke:
	$(GO) test ./internal/core -run '^$$' -bench 'BenchmarkSweep|BenchmarkBestMove' -benchtime 1x
	$(GO) test ./internal/core -run '^$$' -bench 'BenchmarkRunAdult/sequential' -benchtime 1x
	$(GO) test . -run '^$$' -bench 'BenchmarkZGYAAdult' -benchtime 1x
	$(GO) test . -run '^$$' -bench 'BenchmarkStream/stream' -benchtime 1x
	$(GO) test . -run '^$$' -bench 'BenchmarkShard/shards=2/adult6500' -benchtime 1x
	$(GO) test ./internal/serve -run '^$$' -bench 'BenchmarkServe/workers=1/batch=64' -benchtime 1x
	$(GO) test ./internal/serve -run '^$$' -bench 'BenchmarkServe/single' -benchtime 1x
	$(GO) test ./internal/serve -run '^$$' -bench 'BenchmarkServe/kernel=' -benchtime 1x
	$(GO) test ./internal/serve -run '^$$' -bench 'BenchmarkServeTelemetry' -benchtime 1x
	$(GO) test ./internal/kmeans -run '^$$' -bench 'BenchmarkLloyd' -benchtime 1x
	$(GO) test ./internal/load -run '^$$' -bench 'BenchmarkLoad/rate=500' -benchtime 1x
	$(GO) test ./internal/stats -run '^$$' -bench 'BenchmarkDot|BenchmarkSqDist|BenchmarkZipf|BenchmarkNearest' -benchtime 1x
	$(GO) test ./internal/dataset -run 'TestCSVStreamAllocs' -bench 'BenchmarkCSVStream/workers=|BenchmarkSpillReplay' -benchtime 1x
	$(GO) test ./cmd/fairserved -run 'TestAssignHandlerAllocs' -bench 'BenchmarkHTTPAssign' -benchtime 1x

# fuzz-smoke runs each fuzz target on a short fixed budget.
# FuzzCSVDecode is the differential test of the byte-level CSV
# tokenizer and the parallel CSVStream against encoding/csv,
# FuzzSplitCSV checks SplitCSV's shard union against one sequential
# read, FuzzAssignBody is the differential test of the
# /v1/assign request decoder against encoding/json (plus the real
# handler's status contract), FuzzReloadBody holds the real
# /v1/models/reload handler to 200/400/404/413 with the model's
# generation unchanged on every non-200 (paths outside its temp dir
# are skipped), FuzzModelDecode holds the model artifact decoder to no
# panics, Validate on every accepted input and an Encode∘Decode byte
# fixpoint, and FuzzBenchguardParse holds benchguard's `go test -json`
# stream parser to package:Benchmark keys, finite positive ns/op and
# invariance under splitting an output event. FuzzFitContracts holds
# FairKM on small decoded problems to its bit-exact contracts:
# Parallelism 1, 2 and 3 agree, RunWeighted with unit weights equals
# Run, and the fairness-delta memo forced on or off changes nothing.
# FuzzFitShardedWorkers holds pipeline.FitSharded on small decoded
# problems split by SliceShards to its determinism contract: Workers 1,
# 2, 3 and -1 give bit-identical summaries, assignments, centroids and
# objectives, and a reduced summary holds at most MergeBudget + Groups
# rows. FuzzSpillReplay holds pipeline.Spill to CSVStream on arbitrary
# CSV bytes and chunk sizes: the tee hands the chunks on unchanged, a
# replay yields them bit for bit and then the stream's first error, and
# for quote-free bytes the spilled SplitCSV ranges read back through
# pipeline.Concat carry one whole-file stream's rows, codes and domains.
# FuzzTokenize holds the doc2vec tokenizer to no panics
# and lowercase alphanumeric or <num> tokens.
# A crasher any of them finds is written under the package's
# testdata/fuzz and must be committed as a regression input.
fuzz-smoke:
	$(GO) test ./internal/dataset -run '^$$' -fuzz '^FuzzReadCSV$$' -fuzztime 10s
	$(GO) test ./internal/dataset -run '^$$' -fuzz '^FuzzCSVDecode$$' -fuzztime 10s
	$(GO) test ./internal/dataset -run '^$$' -fuzz '^FuzzSplitCSV$$' -fuzztime 10s
	$(GO) test ./cmd/fairserved -run '^$$' -fuzz '^FuzzAssignBody$$' -fuzztime 10s
	$(GO) test ./cmd/fairserved -run '^$$' -fuzz '^FuzzReloadBody$$' -fuzztime 10s
	$(GO) test ./internal/model -run '^$$' -fuzz '^FuzzModelDecode$$' -fuzztime 10s
	$(GO) test ./cmd/benchguard -run '^$$' -fuzz '^FuzzBenchguardParse$$' -fuzztime 10s
	$(GO) test ./internal/core -run '^$$' -fuzz '^FuzzFitContracts$$' -fuzztime 10s
	$(GO) test ./internal/pipeline -run '^$$' -fuzz '^FuzzFitShardedWorkers$$' -fuzztime 10s
	$(GO) test ./internal/pipeline -run '^$$' -fuzz '^FuzzSpillReplay$$' -fuzztime 10s
	$(GO) test ./internal/doc2vec -run '^$$' -fuzz '^FuzzTokenize$$' -fuzztime 10s

# bench-e2e-smoke runs the end-to-end benchmark module's own tests
# (benchmark/ is a separate Go module, so `go test ./...` at the root
# does not reach it).
bench-e2e-smoke:
	cd benchmark && $(GO) test ./...
