#!/usr/bin/env bash
# Builds the benchmark from this checkout and runs it, passing every
# argument on:
#
#   bash bench/run.sh --workload nginx-reload --seed 12 --seconds 10 --trace 0
#   bash bench/run.sh                  # every workload, each in a child process
#   bash bench/run.sh -compare A B     # compare two sets of -out result files
#
# The Go build cache, the binary and the benchmark's scratch files stay in
# .bench_build/ at the repository root; nothing is written elsewhere.
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
out=$root/.bench_build
mkdir -p "$out/tmp"
export GOCACHE=$out/go-cache GOMODCACHE=$out/go-mod GOTMPDIR=$out/tmp
export GOTOOLCHAIN=local GOWORK=off GOFLAGS=-buildvcs=false
# The go command keeps its telemetry counters under the user config dir.
export XDG_CONFIG_HOME=$out/config
# Build to a private name first, so a concurrent run never executes a
# half-written binary.
(cd "$root/bench" && go build -o "$out/bench.$$" .)
mv -f "$out/bench.$$" "$out/bench"
export TMPDIR=$out/tmp
exec "$out/bench" "$@"
