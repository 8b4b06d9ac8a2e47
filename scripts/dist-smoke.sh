#!/usr/bin/env bash
# Two-process distributed-campaign smoke test.
#
# Starts two sutd worker daemons on localhost, runs a bounded nginx/typo
# campaign through `conferr dist`, kills one worker mid-run (SIGKILL, no
# goodbye), and byte-compares the merged -no-duration profile against a
# single-process `conferr matrix -stream-out` reference of the same
# cell. This is the end-to-end check behind the determinism guarantee:
# scheduling, worker death, shard retry and the sequence merge must all
# be invisible in the output. More legs: a campaign spec the workers
# would reject (-limit -1) fails before any shard request is sent;
# watchdog deadlines that never fire cross the wire inside the campaign
# spec without changing a byte; a .cprof merge is the same file, byte
# for byte, as a one-worker `matrix -stream-out` of the cell; and a
# coordinator SIGKILLed once its -out holds records resumes with -resume
# to the same bytes, once with a JSONL and once with a .cprof output.
set -euo pipefail
cd "$(dirname "$0")/.."

tmp=$(mktemp -d)
cleanup() {
  kill "$(jobs -p)" >/dev/null 2>&1 || true
  rm -rf "$tmp"
}
trap cleanup EXIT

go build -o "$tmp/conferr" ./cmd/conferr
go build -o "$tmp/sutd" ./cmd/sutd

SEED=42 ROUNDS=20 LIMIT=20000 PORT=24100
W1=29431 W2=29432

echo "== single-process reference"
"$tmp/conferr" matrix -systems nginx -plugins typo -seed $SEED \
  -rounds $ROUNDS -limit $LIMIT -base-port $PORT -memnet \
  -no-duration -stream-out "$tmp/ref.jsonl" >/dev/null
"$tmp/conferr" matrix -systems nginx -plugins typo -seed $SEED \
  -rounds $ROUNDS -limit $LIMIT -base-port $PORT -memnet -workers 1 \
  -no-duration -stream-out "$tmp/ref.cprof" >/dev/null

echo "== starting two workers"
"$tmp/sutd" -serve 127.0.0.1:$W1 >"$tmp/w1.log" 2>&1 &
W1PID=$!
"$tmp/sutd" -serve 127.0.0.1:$W2 >"$tmp/w2.log" 2>&1 &
W2PID=$!
for log in w1 w2; do
  ok=""
  for _ in $(seq 50); do
    if grep -q "worker listening" "$tmp/$log.log"; then ok=1; break; fi
    sleep 0.1
  done
  [ -n "$ok" ] || { echo "worker $log did not start"; cat "$tmp/$log.log"; exit 1; }
done

echo "== invalid campaign spec (-limit -1) is refused before any dial"
if "$tmp/conferr" dist -workers 127.0.0.1:$W1,127.0.0.1:$W2 -system nginx -plugin typo \
  -limit -1 -port $PORT -memnet -quiet 2>"$tmp/invalid.err"; then
  echo "dist accepted -limit -1"; exit 1
fi
cat "$tmp/invalid.err"
if grep -h "dist: " "$tmp/w1.log" "$tmp/w2.log"; then
  echo "a worker saw a connection for the refused campaign"; exit 1
fi

echo "== distributed run (worker 1 dies mid-run)"
"$tmp/conferr" dist -workers 127.0.0.1:$W1,127.0.0.1:$W2 -shards 4 \
  -system nginx -plugin typo -seed $SEED -rounds $ROUNDS -limit $LIMIT \
  -port $PORT -memnet -no-duration -out "$tmp/dist.jsonl" &
DIST=$!

sleep 0.3
kill -9 "$W1PID" 2>/dev/null && echo "killed worker 1 (pid $W1PID)" || true

wait "$DIST"

cmp "$tmp/ref.jsonl" "$tmp/dist.jsonl"
echo "dist-smoke OK: merged profile byte-identical to the single-process reference ($(wc -l <"$tmp/dist.jsonl") records)"

echo "== distributed run merged to .cprof (surviving worker only)"
"$tmp/conferr" dist -workers 127.0.0.1:$W2 -shards 4 \
  -system nginx -plugin typo -seed $SEED -rounds $ROUNDS -limit $LIMIT \
  -port $PORT -memnet -no-duration -out "$tmp/dist.cprof"

cmp "$tmp/ref.cprof" "$tmp/dist.cprof"
"$tmp/conferr" convert "$tmp/dist.cprof" "$tmp/dist-converted.jsonl" >/dev/null
cmp "$tmp/ref.jsonl" "$tmp/dist-converted.jsonl"

jsonl_bytes=$(wc -c <"$tmp/ref.jsonl")
cprof_bytes=$(wc -c <"$tmp/dist.cprof")
echo "dist-smoke OK: .cprof merge byte-identical to the one-worker matrix .cprof, and converts to the JSONL reference ($cprof_bytes vs $jsonl_bytes bytes)"

echo "== distributed run with deadlines that never fire (surviving worker only)"
"$tmp/conferr" dist -workers 127.0.0.1:$W2 -shards 4 \
  -system nginx -plugin typo -seed $SEED -rounds $ROUNDS -limit $LIMIT \
  -port $PORT -memnet -no-duration -phase-timeout 30s -experiment-timeout 60s \
  -out "$tmp/dist-deadlines.jsonl"
cmp "$tmp/ref.jsonl" "$tmp/dist-deadlines.jsonl"
echo "dist-smoke OK: merged profile under -phase-timeout/-experiment-timeout byte-identical to the reference"

# resume_leg OUT: SIGKILL the coordinator once OUT holds records (a
# .cprof output holds none before its first 4,096-record frame), rerun
# it with -resume, and cmp the result against the reference of OUT's
# format. The leg fails if the first run finishes before the kill lands.
resume_leg() {
  local out="$tmp/$1"
  local args=(dist -workers 127.0.0.1:$W2 -shards 4 -system nginx -plugin typo
    -seed $SEED -rounds $ROUNDS -limit $LIMIT -port $PORT -memnet -no-duration
    -quiet -out "$out")
  echo "== coordinator killed mid-run, then resumed (-out $1)"
  "$tmp/conferr" "${args[@]}" >/dev/null &
  local pid=$!
  for _ in $(seq 3000); do
    if [ -s "$out" ]; then break; fi
    sleep 0.01
  done
  kill -9 "$pid" 2>/dev/null || true
  local status=0
  wait "$pid" || status=$?
  if [ "$status" -ne 137 ]; then
    echo "the coordinator was not killed mid-run (exit $status)"; exit 1
  fi
  echo "killed with $(wc -c <"$out") bytes in $1"
  "$tmp/conferr" "${args[@]}" -resume >"$tmp/resume.out"
  cat "$tmp/resume.out"
  if ! grep -Eq '^resumed from sequence [1-9][0-9]* ' "$tmp/resume.out"; then
    echo "the rerun did not resume past sequence 0"; exit 1
  fi
  cmp "$tmp/ref.${1##*.}" "$out"
  echo "dist-smoke OK: resumed -out $1 byte-identical to the reference"
}
resume_leg resume.jsonl
resume_leg resume.cprof
