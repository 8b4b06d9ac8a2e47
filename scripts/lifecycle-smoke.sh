#!/usr/bin/env bash
# Same-bytes smoke across SUT lifecycles and transports.
#
# Runs one bounded nginx/typo matrix cell through `conferr matrix` under
# cold starts over kernel TCP (1 and 4 workers), cold starts over the
# in-process memnet transport (1 and 4 workers), and warm reloads over
# memnet (1, 4 and 8 workers), and byte-compares (cmp) every -no-duration
# stream against the cold TCP single-worker one: the lifecycle, the
# transport, the worker count, the port remap of parallel TCP workers and
# the verbatim primary port of memnet workers must all be invisible in
# the output. Validate-only runs report probe detections as
# ignored, so they are compared with each other (1 vs 4 workers) only.
#
# Base port 11516 keeps every typo'd port below the kernel's ephemeral
# range, where a TIME_WAIT collision could change an outcome.
set -euo pipefail
cd "$(dirname "$0")/.."

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

go build -o "$tmp/conferr" ./cmd/conferr

run() {
  local name=$1
  shift
  "$tmp/conferr" matrix -systems nginx -plugins typo -limit 20000 -rounds 3 \
    -no-duration -base-port 11516 -stream-out "$tmp/$name.jsonl" "$@" >/dev/null
}

echo "== cold TCP reference (1 worker)"
run cold-tcp-w1 -lifecycle cold -workers 1
for cfg in "cold-tcp-w4 -lifecycle cold -workers 4" \
  "cold-memnet-w1 -lifecycle cold -memnet -workers 1" \
  "cold-memnet-w4 -lifecycle cold -memnet -workers 4" \
  "reload-memnet-w1 -lifecycle reload -memnet -workers 1" \
  "reload-memnet-w4 -lifecycle reload -memnet -workers 4" \
  "reload-memnet-w8 -lifecycle reload -memnet -workers 8"; do
  set -- $cfg
  echo "== $1"
  run "$@"
  cmp "$tmp/cold-tcp-w1.jsonl" "$tmp/$1.jsonl"
done

echo "== validate memnet (1 and 4 workers)"
run validate-memnet-w1 -lifecycle validate -memnet -workers 1
run validate-memnet-w4 -lifecycle validate -memnet -workers 4
cmp "$tmp/validate-memnet-w1.jsonl" "$tmp/validate-memnet-w4.jsonl"

echo "lifecycle-smoke OK: $(wc -l <"$tmp/cold-tcp-w1.jsonl") records, md5 $(md5sum <"$tmp/cold-tcp-w1.jsonl" | cut -d' ' -f1)"
