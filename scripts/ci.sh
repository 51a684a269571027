#!/usr/bin/env bash
# CI gate: vet, shadow lint, build, race-enabled tests, a short fuzz pass
# over the MAC, route-cache, scheduler-wheel, trace-reader,
# propagation-grid, fading-verdict and config-decoder targets, the
# coverage gate, the calibrated perf-smoke gate, a benchmark smoke run, a tracediff smoke
# (audit inert / seeds diverge), the golden-trace corpus gate (every
# committed cell re-runs and replays byte-identically), a
# record/replay round-trip smoke through the rcast-sim CLI,
# invariant-audited experiment smokes (clean and fault-injected) under the
# race detector, the end-to-end rcast-serve smoke (race-built daemon:
# submit/poll/parity/cache/429/drain), and the fleet smoke (coordinator +
# two race-built workers: sweep sharding, peer-cache fill, serial
# byte-parity).
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== go vet =="
go vet ./...

echo "== shadowcheck =="
go run ./tools/shadowcheck .

echo "== go build =="
go build ./...

echo "== go test -race =="
go test -race ./...

echo "== fuzz smoke =="
go test -run '^$' -fuzz 'FuzzPSMOperations' -fuzztime 10s ./internal/mac
go test -run '^$' -fuzz 'FuzzCacheOperations' -fuzztime 10s ./internal/routing/dsr
go test -run '^$' -fuzz 'FuzzSchedulerWheel' -fuzztime 10s ./internal/sim
go test -run '^$' -fuzz 'FuzzReadEvents' -fuzztime 10s ./internal/trace
go test -run '^$' -fuzz 'FuzzPropagationGrid' -fuzztime 10s ./internal/phy
go test -run '^$' -fuzz 'FuzzFadingVerdict' -fuzztime 10s ./internal/propagation
go test -run '^$' -fuzz 'FuzzDecodeConfig' -fuzztime 10s ./internal/scenario

echo "== coverage gate =="
go run ./tools/covergate

echo "== perf smoke =="
# Calibrated 3-node-cell gate: fails on >30% event-kernel slowdown
# relative to tools/perfsmoke/baseline.json (see that tool for how the
# score is normalized across machines).
go run ./tools/perfsmoke

echo "== bench smoke =="
go test -run '^$' -bench 'BenchmarkFullRunRcast$|BenchmarkChannelTransmit' -benchtime 1x .

echo "== tracediff smoke =="
# The audit must be observation-only: trace A (plain) against B (audited)
# and require byte-for-byte identical event streams (exit 0).
go run ./tools/tracediff -nodes 25 -duration 30s -connections 5 -audit-b
# Two seeds of one config must diverge, and tracediff must say so with
# exit status 1 (2 would mean it errored instead of diffing).
rc=0
go run ./tools/tracediff -nodes 25 -duration 30s -connections 5 -seed-b 2 > /dev/null || rc=$?
if [ "$rc" -ne 1 ]; then
  echo "tracediff: want exit 1 for diverging seeds, got $rc" >&2
  exit 1
fi

echo "== golden-trace corpus gate =="
# Every committed corpus cell must re-run byte-identically at HEAD, replay
# byte-identically from its own golden trace, and (marked cells) match the
# artifact rcast-serve stores. A behavioral change that moves a golden
# fails here with the first divergent event; regenerate deliberately with
# `go run ./tools/tracegate -update`.
go run ./tools/tracegate

echo "== replay round-trip smoke =="
# Record a run through the CLI, replay it from the trace, and require both
# the report and the re-emitted trace to be byte-identical to the original.
tmpdir="$(mktemp -d)"
trap 'rm -rf "$tmpdir"' EXIT
go run ./cmd/rcast-sim -nodes 12 -duration 12s -static -connections 3 -seed 4 \
  -trace "$tmpdir/rec.ndjson" > "$tmpdir/rec.out"
go run ./cmd/rcast-sim -nodes 12 -duration 12s -static -connections 3 -seed 4 \
  -replay "$tmpdir/rec.ndjson" -trace "$tmpdir/rep.ndjson" > "$tmpdir/rep.out"
cmp "$tmpdir/rec.out" "$tmpdir/rep.out"
cmp "$tmpdir/rec.ndjson" "$tmpdir/rep.ndjson"
# Same round-trip under a random channel + non-default mobility: the
# chan-lost decision stream must replay the faded run byte-identically.
go run ./cmd/rcast-sim -nodes 12 -duration 12s -connections 3 -seed 4 \
  -channel fading -mobility gauss-markov \
  -trace "$tmpdir/fade.ndjson" > "$tmpdir/fade.out"
go run ./cmd/rcast-sim -nodes 12 -duration 12s -connections 3 -seed 4 \
  -channel fading -mobility gauss-markov \
  -replay "$tmpdir/fade.ndjson" -trace "$tmpdir/fade2.ndjson" > "$tmpdir/fade2.out"
cmp "$tmpdir/fade.out" "$tmpdir/fade2.out"
cmp "$tmpdir/fade.ndjson" "$tmpdir/fade2.ndjson"
# And under a named overhearing policy at reduced transmit power with
# finite batteries: the registry-selected policy's lottery stream and the
# power-scaled energy accounting must round-trip byte-identically too.
go run ./cmd/rcast-sim -nodes 12 -duration 12s -static -connections 3 -seed 4 \
  -policy battery -battery 2000 -tx-power -3 \
  -trace "$tmpdir/pol.ndjson" > "$tmpdir/pol.out"
go run ./cmd/rcast-sim -nodes 12 -duration 12s -static -connections 3 -seed 4 \
  -policy battery -battery 2000 -tx-power -3 \
  -replay "$tmpdir/pol.ndjson" -trace "$tmpdir/pol2.ndjson" > "$tmpdir/pol2.out"
cmp "$tmpdir/pol.out" "$tmpdir/pol2.out"
cmp "$tmpdir/pol.ndjson" "$tmpdir/pol2.ndjson"

echo "== audited smoke (race) =="
go run -race ./cmd/rcast-bench -profile quick -only table1 -reps 1 -audit > /dev/null

echo "== audited fault-sweep smoke (race) =="
go run -race ./cmd/rcast-bench -profile quick -only a8 -reps 1 -audit > /dev/null

echo "== audited channel-sweep smoke (race) =="
go run -race ./cmd/rcast-bench -profile quick -only a9 -reps 1 -audit > /dev/null

echo "== audited tx-power-sweep smoke (race) =="
go run -race ./cmd/rcast-bench -profile quick -only a10 -reps 1 -audit > /dev/null

echo "== serve smoke (race) =="
go run ./tools/servesmoke

echo "== fleet smoke (race) =="
go run ./tools/fleetsmoke

echo "ci: OK"
