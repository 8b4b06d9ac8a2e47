#!/usr/bin/env bash
# Same-bytes smoke across SUT lifecycles, transports and worker counts.
#
# Runs one bounded nginx/typo matrix cell through `conferr matrix` under
# cold starts over kernel TCP (1, 4 and 8 workers), warm reloads over
# kernel TCP (1 and 4 workers), cold starts over the in-process memnet
# transport (1 and 4 workers), and warm reloads over memnet (1, 4 and 8
# workers), and byte-compares (cmp) every -no-duration stream against
# the cold TCP single-worker one: the lifecycle, the transport and the
# worker count must all be invisible in the output. Every worker binds
# the primary's port verbatim, in a private memnet namespace or on a
# loopback host of its own. Validate-only runs report probe detections
# as ignored, so they are compared with each other (1 vs 4 workers) only.
#
# Then one cell per other network simulator, each cmp'd against its own
# cold TCP single-worker stream:
#   - apache, postgres, redisd and bind (typo): reload TCP and reload
#     memnet at 4 workers. apache's reload must drop a moved Listen
#     port's keep-alive connections as a cold restart does. bind has no
#     reload or memnet, so its cells run cold on kernel UDP.
#   - mysql (typo) over kernel TCP, whose faultload typos the port
#     digits: 8 workers.
#   - djbdns (semantic; typo yields no scenarios for it): 4 workers.
#
# Last, `conferr campaign -records` (the in-memory profile path, Runner
# and Campaign.RunContext) on nginx/typo: 1 cold worker vs 4 reload
# workers, cmp'd from the per-class table on (the banner names the
# worker count).
#
# Base ports 11516-11850 keep every typo'd port below the kernel's
# ephemeral range, where a TIME_WAIT collision could change an outcome.
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
  "cold-tcp-w8 -lifecycle cold -workers 8" \
  "reload-tcp-w1 -lifecycle reload -workers 1" \
  "reload-tcp-w4 -lifecycle reload -workers 4" \
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

cell() {
  local name=$1
  shift
  "$tmp/conferr" matrix -no-duration -stream-out "$tmp/$name.jsonl" "$@" >/dev/null
}

for sp in apache:11516 postgres:11750 redisd:11800 bind:11600; do
  sys=${sp%:*} port=${sp#*:}
  echo "== $sys: cold TCP (1 worker) vs reload TCP and reload memnet (4 workers)"
  cell $sys-w1 -systems $sys -plugins typo -base-port $port -lifecycle cold -workers 1
  cell $sys-reload-tcp-w4 -systems $sys -plugins typo -base-port $port -lifecycle reload -workers 4
  cell $sys-reload-memnet-w4 -systems $sys -plugins typo -base-port $port -lifecycle reload -memnet -workers 4
  cmp "$tmp/$sys-w1.jsonl" "$tmp/$sys-reload-tcp-w4.jsonl"
  cmp "$tmp/$sys-w1.jsonl" "$tmp/$sys-reload-memnet-w4.jsonl"
done

echo "== mysql: kernel TCP (1 vs 8 workers)"
cell mysql-w1 -systems mysql -plugins typo -base-port 11700 -workers 1
cell mysql-w8 -systems mysql -plugins typo -base-port 11700 -workers 8
cmp "$tmp/mysql-w1.jsonl" "$tmp/mysql-w8.jsonl"

echo "== djbdns: semantic (1 vs 4 workers)"
cell djbdns-w1 -systems djbdns -plugins semantic -base-port 11650 -workers 1
cell djbdns-w4 -systems djbdns -plugins semantic -base-port 11650 -workers 4
cmp "$tmp/djbdns-w1.jsonl" "$tmp/djbdns-w4.jsonl"

echo "== campaign: nginx cold (1 worker) vs reload (4 workers)"
campaign() {
  local name=$1
  shift
  "$tmp/conferr" campaign -system nginx -port 11850 -records "$@" |
    sed -n '/^Per-class detection:/,$p' >"$tmp/$name.txt"
  test -s "$tmp/$name.txt"
}
campaign campaign-w1 -workers 1
campaign campaign-reload-w4 -workers 4 -lifecycle reload
cmp "$tmp/campaign-w1.txt" "$tmp/campaign-reload-w4.txt"

md5() { md5sum <"$1" | cut -d' ' -f1; }
summary="nginx $(wc -l <"$tmp/cold-tcp-w1.jsonl") records, md5 $(md5 "$tmp/cold-tcp-w1.jsonl")"
for sys in apache postgres redisd bind mysql djbdns; do
  summary+="; $sys $(wc -l <"$tmp/$sys-w1.jsonl") records, md5 $(md5 "$tmp/$sys-w1.jsonl")"
done
echo "lifecycle-smoke OK: $summary"
