#!/usr/bin/env sh
# ci.sh — the full local verification gate for Panoptes.
#
# Runs formatting, vet, build and the test suite, then the race detector
# over the packages with the hottest concurrency (the obs registry, the
# MITM proxy and the capture store). Exits non-zero on the first failure.
#
# Usage: scripts/ci.sh   (from the repository root)
set -eu

cd "$(dirname "$0")/.."

echo "==> gofmt"
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt: needs formatting:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "==> go vet ./..."
go vet ./...

echo "==> go build ./..."
go build ./...

echo "==> go test ./..."
go test ./...

echo "==> benchmark module tests (perfbench: its own Go module, outside ./...)"
(cd perfbench && go test ./...)

echo "==> go test -race (obs, mitm, connpool, capture: sharded accept loops + idle pools + flow recycling)"
go test -race ./internal/obs/... ./internal/mitm/... ./internal/connpool/... ./internal/capture/...

echo "==> go test -race (core, leak, pipeline: concurrent scheduler + streaming analyzers)"
go test -race ./internal/core/... ./internal/leak/... ./internal/pipeline/...

echo "==> go test -race (match, pii: concurrent scans of one automaton + dictionary dispatch)"
go test -race ./internal/match/... ./internal/pii/...

echo "==> go test -race (sink, breaker: export dispatchers + shared breakers)"
go test -race ./internal/sink/... ./internal/breaker/...

echo "==> go test -race (browser, webengine: per-host native burst lanes + concurrent subresource fetches)"
go test -race ./internal/browser/... ./internal/webengine/...

echo "==> fault-seed chaos smoke (10% fault rate campaign under -race, all transports)"
# A seeded chaos campaign over every data-plane transport (the fleet
# includes h2, WebSocket and DoH speakers) must complete with every
# browser intact and
# every failed visit classified, and the determinism keystones must hold
# across straight/resumed runs at parallelism 1 and 8 — including the
# data-plane contract: warm (resumed TLS + pooled conns, with injected
# pool poison) campaigns byte-identical to the cold full-handshake path.
go test -race -count=1 -run 'TestChaosCampaign|TestFaultCampaignDeterminism|TestDataPlaneDeterminism' \
    ./internal/core/ ./internal/faultsim/

echo "==> population engine gate (determinism keystone + 10k-user bounded-residency smoke under -race)"
# The population keystone pins the analyses byte-identical across
# synthesis parallelism 1/8 and pause/resume; the bounded-residency
# smoke runs 10k users under retain=none and requires zero resident
# flows and head-sampling under its cap.
go test -race -count=1 -run 'TestPopulationDeterminism|TestPopulationBoundedResidency' \
    ./internal/popsim/

echo "==> benchmark smoke: crawl scaling (visits/sec, parallelism 1 vs N, warm vs cold data plane)"
crawl_out=$(go test -run '^$' -bench CrawlScaling -benchtime=1x .)
echo "$crawl_out"

echo "==> benchmark smoke: leak scan scaling + mitm body allocs"
# 100 iterations, not 1: the flow-record and body pools only show their
# steady-state allocation profile once warm (a 1x run measures pool
# cold-start, which charges buildFlow the one-time Flow/Headers/Body
# allocations it exists to amortise).
bench_out=$(go test -run '^$' -bench 'LeakScanScaling|MitmBodyAlloc' -benchmem -benchtime=100x \
    ./internal/leak/ ./internal/mitm/)
echo "$bench_out"
# Emit a machine-readable baseline so perf regressions show up as a
# diff against the committed BENCH_*.json files. Every "value unit" pair
# a bench reported becomes a key, "/" in the unit spelled "_per_"
# (ns/op -> ns_per_op, visits/sec -> visits_per_sec).
emit_bench_json() {
    awk -v pattern="$1" '
BEGIN { print "[" ; first = 1 }
$0 ~ "^Benchmark(" pattern ")" {
    row = "{\"bench\": \"" $1 "\""
    for (i = 4; i <= NF; i += 2) {
        unit = $(i)
        gsub("/", "_per_", unit)
        row = row ", \"" unit "\": \"" $(i - 1) "\""
    }
    row = row "}"
    if (!first) printf ",\n"
    first = 0
    printf "  %s", row
}
END { print "\n]" }'
}
echo "$bench_out" | emit_bench_json "LeakScanScaling|MitmBodyAlloc" > BENCH_leakscan.json
echo "wrote BENCH_leakscan.json"

# The crawl baseline pins the end-to-end data plane: visits/sec at
# parallelism 1 and 8 plus the cold (no resumption, no reuse) ablation,
# allocs/visit, the handshake-resumed / conn-reuse rates, and the
# per-transport capture throughput (h1/h2/ws/doh flows per second).
echo "$crawl_out" | emit_bench_json "CrawlScaling" > BENCH_crawl.json
echo "wrote BENCH_crawl.json"

echo "==> benchmark smoke: sink throughput (flows/sec into a slow sink, queue bound, allocs/op)"
sink_out=$(go test -run '^$' -bench SinkThroughput -benchmem -benchtime=1x ./internal/sink/)
echo "$sink_out"
echo "$sink_out" | emit_bench_json "SinkThroughput" > BENCH_sink.json
echo "wrote BENCH_sink.json"

echo "==> benchmark smoke: population scaling (sessions/sec + peak RSS at 10k/100k/1M users)"
# The population baseline pins the tentpole claim: wall-clock session
# throughput stays flat and peak RSS stays bounded while the simulated
# population grows 100x on the full streaming-analysis plane. The 1M
# point is the long pole (a few minutes of one-core wall time).
pop_out=$(go test -run '^$' -bench PopulationScaling -benchtime=1x -timeout 30m ./internal/popsim/)
echo "$pop_out"
echo "$pop_out" | emit_bench_json "PopulationScaling" > BENCH_population.json
echo "wrote BENCH_population.json"

echo "==> ci.sh: all checks passed"
