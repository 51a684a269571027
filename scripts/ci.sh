#!/usr/bin/env bash
# CI gate: vet, shadow lint, build, race-enabled tests, a short fuzz pass
# over the MAC, route-cache, scheduler-wheel, RNG-stream, trace-reader,
# propagation-grid, reach-list, fading-verdict, config-decoder and
# rcast-serve job/sweep request-decoder targets, a vet and smoke test of
# the separate bench module, the coverage gate, the calibrated perf-smoke gate (a 3-node cell, a
# 100-node route-learning cell, the 100-node mobile paper cell, that
# cell's world set-up and a 40-node shadowing cell), a benchmark smoke
# run, an examples smoke (every examples/* program must exit 0), a
# tracediff smoke (audit inert on DSR and on AODV with every fault
# preset / seeds diverge), the golden-trace
# corpus gate (every committed cell re-runs and replays byte-identically),
# record/replay round-trips through the rcast-sim CLI (plain, fading +
# Gauss–Markov, policy + battery + TX power, AODV + all faults), the quick
# experiment suite's stdout byte-compared at one and two workers, an
# invariant-audited experiment smoke (Table 1 and A8–A10) under the race
# detector, and the end-to-end rcast-serve smoke (race-built daemons:
# submit/poll/parity/cache/429/drain/early SIGTERM, then a coordinator
# over two workers: sweep sharding, peer-cache fill, serial byte-parity).
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
go test -run '^$' -fuzz 'FuzzStream' -fuzztime 10s ./internal/sim
go test -run '^$' -fuzz 'FuzzReadEvents' -fuzztime 10s ./internal/trace
go test -run '^$' -fuzz 'FuzzPropagationGrid' -fuzztime 10s ./internal/phy
go test -run '^$' -fuzz 'FuzzReachLists' -fuzztime 10s ./internal/phy
go test -run '^$' -fuzz 'FuzzStillIntervals' -fuzztime 10s ./internal/mobility
go test -run '^$' -fuzz 'FuzzFadingVerdict' -fuzztime 10s ./internal/propagation
go test -run '^$' -fuzz 'FuzzDecodeConfig' -fuzztime 10s ./internal/scenario
go test -run '^$' -fuzz 'FuzzJobRequest' -fuzztime 10s ./internal/serve
go test -run '^$' -fuzz 'FuzzSweepRequest' -fuzztime 10s ./internal/serve

echo "== bench module =="
# bench/ is its own module (replace rcast => ../), so the root module's
# build and tests skip it; it compiles against the serve types.
(cd bench && go vet . && go test ./...)

echo "== coverage gate =="
go run ./tools/covergate

echo "== perf smoke =="
# Calibrated gate over five cells, each scored on its own: a 3-node cell
# for the event kernel, a 100-node always-on cell for DSR route learning,
# the paper's mobile 100-node Rcast cell, a batch of zero-length builds
# of that cell's world, for set-up, and ablation A9's 40-node shadowing
# Gauss–Markov Rcast cell, for per-link radii. Fails on a >30% slowdown of
# any relative to tools/perfsmoke/baseline.json (see that tool for how the
# score is normalized across machines).
go run ./tools/perfsmoke

echo "== bench smoke =="
go test -run '^$' -bench 'BenchmarkFullRunRcast$|BenchmarkChannelTransmit|BenchmarkWorldSetup$' -benchtime 1x .
go test -run '^$' -bench 'BenchmarkStream$' -benchtime 1x ./internal/sim
go test -run '^$' -bench 'BenchmarkCacheAdd$|BenchmarkCacheInsertEvict$|BenchmarkLearnFromTransmitter$|BenchmarkLearnMemoHit$' -benchtime 1x ./internal/routing/dsr
go test -run '^$' -bench 'BenchmarkTransmit|BenchmarkVisitNeighbors|BenchmarkCountNeighbors' -benchtime 1x ./internal/phy

echo "== examples smoke =="
# Run every example program on the public API; a non-zero exit fails.
for dir in examples/*/; do
  go run "./$dir" > /dev/null
done

echo "== tracediff smoke =="
# The audit must be observation-only: trace A (plain) against B (audited)
# and require byte-for-byte identical event streams (exit 0). tracediff
# starts from PaperDefaults, so the 900 m field and 30 s pause are spelled
# out.
go run ./tools/tracediff -nodes 25 -field-w 900 -duration 30s -pause 30s -connections 5 -audit-b
# The same over AODV with every fault preset: crashes take the AODV
# router through the shared discovery core's reset.
go run ./tools/tracediff -nodes 25 -field-w 900 -duration 30s -pause 30s -connections 5 -routing AODV -faults all -audit-b
# Two seeds of one config must diverge, and tracediff must say so with
# exit status 1 (2 would mean it errored instead of diffing).
rc=0
go run ./tools/tracediff -nodes 25 -field-w 900 -duration 30s -pause 30s -connections 5 -seed-b 2 > /dev/null || rc=$?
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
# The flag sets cover: a plain static cell; a random channel with
# non-default mobility (the chan-lost decision stream); a named
# overhearing policy at reduced transmit power with finite batteries (the
# registry policy's lottery stream and power-scaled energy accounting);
# and AODV under every fault preset with a battery that runs out (its
# crash, recovery and battery-death wiring: 2 crashes, 1 recovery, 1
# death at this seed).
tmpdir="$(mktemp -d)"
trap 'rm -rf "$tmpdir"' EXIT
i=0
for flags in \
  "-duration 12s -seed 4 -static" \
  "-duration 12s -seed 4 -channel fading -mobility gauss-markov" \
  "-duration 12s -seed 4 -static -policy battery -battery 2000 -tx-power -3" \
  "-duration 45s -seed 29 -routing AODV -faults all -battery 30"; do
  i=$((i + 1))
  # shellcheck disable=SC2086 # each flag set splits into words on purpose
  go run ./cmd/rcast-sim -nodes 12 -connections 3 $flags \
    -trace "$tmpdir/rec$i.ndjson" > "$tmpdir/rec$i.out"
  # shellcheck disable=SC2086
  go run ./cmd/rcast-sim -nodes 12 -connections 3 $flags \
    -replay "$tmpdir/rec$i.ndjson" -trace "$tmpdir/rep$i.ndjson" > "$tmpdir/rep$i.out"
  cmp "$tmpdir/rec$i.out" "$tmpdir/rep$i.out"
  cmp "$tmpdir/rec$i.ndjson" "$tmpdir/rep$i.ndjson"
done

echo "== quick suite worker parity =="
# The whole quick suite at one and at two workers must print the same
# bytes: the run cache is keyed by CanonicalKey and filled from a pooled
# batch, so a cache read that depended on the pool's completion order
# would show here, not only in the tiny-profile golden.
go build -o "$tmpdir/rcast-bench" ./cmd/rcast-bench
"$tmpdir/rcast-bench" -profile quick -workers 1 > "$tmpdir/quick1.out"
"$tmpdir/rcast-bench" -profile quick -workers 2 > "$tmpdir/quick2.out"
cmp "$tmpdir/quick1.out" "$tmpdir/quick2.out"

echo "== audited experiment smoke (race) =="
# Table 1 plus the fault, channel and tx-power sweeps (A8–A10), every run
# under the invariant audit in one race-built suite.
go run -race ./cmd/rcast-bench -profile quick -only table1,a8,a9,a10 -reps 1 -audit > /dev/null

echo "== serve smoke (race) =="
go run ./tools/servesmoke

echo "ci: OK"
