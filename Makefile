# Convenience targets; everything is plain `go` underneath.

.PHONY: all build vet test race stress bench bench-json experiments fuzz fmt

all: build vet test

build:
	go build ./...

vet:
	go vet ./...

fmt:
	gofmt -l .

test:
	go test ./...

race:
	go test -race ./...

# The large-graph oracle cross-checks (skipped by `go test -short`).
stress:
	go test -run TestStress -count=1 .
	go test -run TestServerInterleavingsStress -count=1 ./internal/serve/harness

# testing.B benches: one per paper table/figure plus micro-benches.
bench:
	go test -bench=. -benchmem -run='^$$' ./...

# Machine-readable snapshot of the perf-trajectory benchmarks: the PR 2
# BFS / CC / scheduler set, the PR 3 ingestion set (build + parse
# throughput in edges/s, reorder ablation), the PR 4 serving set (reader
# throughput with/without singleflight, Apply latency under read load),
# the PR 5 HTTP front-end throughput, the PR 6 CC algorithm-matrix sweep,
# the PR 7 SCC algorithm-matrix sweep (coloring vs multireach vs fwbw per
# directed graph class, plus the probe-fed auto), the PR 8 BiCC
# algorithm-matrix sweep (constrained vs skeleton per undirected graph
# class, plus the depth-probe-fed auto), the PR 9 dynamic-apply
# cut-vs-rebuild crossover, and the PR 10 binary-container ingestion
# ladder (mmap vs streamed v2 vs legacy v1 vs text parse+build), the PR 12
# merge-based Undirect throughput (arcs/s), and the PR 13 first-use edge-id
# cursor pass (ids/s), plus the text boot path through cli.LoadDirected
# (edges/s), and the PR 17 merging insert-only publish (ns/op and B/op at
# 2^16 and 2^20 vertices); plus the dynamic publish through a Server (B/op)
# and the forest's bytes per live edge after promotion and churn (B/edge);
# plus the directed WCC entry against Undirect + Solve (ns/op and B/op);
# plus the engine's cold partial queries (BenchmarkEngineQueries), which run
# on the engine's current epoch; the mmap'd container load also reports
# resident-KiB, the bytes of the mapping left resident once it returns. The
# benchmark the last change moved (BenchmarkContainerLoad, whose mmap path
# now validates window by window and releases each checked window) also
# runs, in the same session, on the tree of PARENT exported to a temporary
# directory (default HEAD~1; PARENT=HEAD compares uncommitted changes with
# the last commit); its rows carry the name prefix BenchmarkParent/. The
# snapshot goes to BENCH_PR25.json, stamped by bench2json with the host
# (goos, goarch, cpu, GOMAXPROCS) and the Go version.
PARENT ?= HEAD~1

bench-json:
	( go test -bench='BFS|CC|Pool|Reach' -benchmem -benchtime=20x -run='^$$' \
		. ./internal/bfs ./internal/parallel ; \
	  go test -bench='Build|Parse|LoadEdgeList|Reorder|Undirect|EdgeIDs' -benchmem -benchtime=5x -run='^$$' \
		./internal/bench ; \
	  go test -bench='^BenchmarkContainer' -benchmem -benchtime=5x -run='^$$' \
		./internal/bench ; \
	  go test -bench='^Benchmark(CCMatrix|WCC)$$' -benchmem -benchtime=3x -run='^$$' \
		./internal/bench ; \
	  go test -bench='^BenchmarkSCCMatrix$$' -benchmem -benchtime=3x -run='^$$' \
		./internal/bench ; \
	  go test -bench='^BenchmarkBiCCMatrix$$' -benchmem -benchtime=10x -run='^$$' \
		./internal/bench ; \
	  go test -bench='ServerThroughput|ApplyUnderReadLoad|ServerApplyPublish' -benchmem -benchtime=5x -run='^$$' \
		. ; \
	  go test -bench='^BenchmarkEngineQueries$$' -benchmem -benchtime=20x -run='^$$' \
		. ; \
	  go test -bench='^BenchmarkDynamicApply$$' -benchmem -benchtime=3x -run='^$$' \
		. ; \
	  go test -bench='HTTPThroughput' -benchmem -benchtime=2s -run='^$$' \
		./internal/httpd ; \
	  parent=$$(mktemp -d) && git archive $(PARENT) | tar -x -C $$parent && \
	  ( cd $$parent && \
	    go test -bench='^BenchmarkContainerLoad$$' -benchmem -benchtime=5x -run='^$$' ./internal/bench ) \
		| sed 's/^Benchmark/BenchmarkParent\//' ; \
	  rm -rf $$parent ) \
		| go run ./cmd/bench2json > BENCH_PR25.json

# Regenerate every table and figure of the paper's evaluation.
experiments:
	go run ./cmd/aquila-bench -exp all

# Short fuzz passes over the hardened entry points. The container fuzzer
# bounds minimization explicitly: every valid .aqg is >= 4 KiB (fixed
# header), so the default unbounded minimizer can swallow a short run
# shrinking interesting inputs without advancing the execs counter.
fuzz:
	go test -fuzz=FuzzReadEdgeList$$ -fuzztime=30s ./internal/graph
	go test -fuzz=FuzzReadEdgeListParity -fuzztime=30s ./internal/graph
	go test -fuzz=FuzzParallelBuildParity -fuzztime=30s ./internal/graph
	go test -fuzz=FuzzReadBinary -fuzztime=30s ./internal/graph
	go test -fuzz=FuzzContainerRoundTrip -fuzztime=30s -fuzzminimizetime=10x ./internal/graph
	go test -fuzz=FuzzBiCCMatchesOracle -fuzztime=30s ./internal/bicc
	go test -fuzz=FuzzBiCCPolicyMatchesOracle -fuzztime=30s ./internal/bicc
	go test -fuzz=FuzzIncMatchesOracle -fuzztime=30s ./internal/inc
	go test -fuzz=FuzzCCPolicyMatchesOracle -fuzztime=30s ./internal/cc
	go test -fuzz=FuzzSCCPolicyMatchesOracle -fuzztime=30s ./internal/scc
	go test -fuzz=FuzzServerSchedule -fuzztime=30s ./internal/serve/harness
	go test -fuzz=FuzzDynMatchesOracle -fuzztime=30s ./internal/dyn
