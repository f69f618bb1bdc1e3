#!/usr/bin/env bash
# fleet_smoke.sh — boot a three-shard planning fleet (3x graphpiped with
# a shared ring + graphpipe-lb in front) and prove the PR's acceptance
# criteria from the outside: a plan computed cold on one shard is served
# byte-identically by every other shard via peer cache-fill with no
# second cold search, a skewed fleetgen replay meets its aggregate hit
# ratio, the warm fleet path beats a cold plan (fleetgen's warm p99 below
# its cold p50), and the whole fleet drains cleanly on SIGTERM.
#
# Usage: scripts/fleet_smoke.sh [base_port]   (default: 8890)
set -euo pipefail
cd "$(dirname "$0")/.."

base_port="${1:-8890}"
lb_port=$((base_port + 3))
lb="http://127.0.0.1:$lb_port"
work="$(mktemp -d)"
pids=()

# Trap-based cleanup on any exit path (normal, failure, ^C, TERM):
# SIGTERM everything, wait bounded, then SIGKILL stragglers — a failing
# smoke must never leak daemons into the next CI step or shell.
cleanup() {
  status=$?
  for pid in "${pids[@]:-}"; do
    [[ -n "$pid" ]] && kill -TERM "$pid" 2>/dev/null || true
  done
  for _ in $(seq 1 50); do
    alive=0
    for pid in "${pids[@]:-}"; do
      [[ -n "$pid" ]] && kill -0 "$pid" 2>/dev/null && alive=1
    done
    [[ $alive -eq 0 ]] && break
    sleep 0.2
  done
  for pid in "${pids[@]:-}"; do
    if [[ -n "$pid" ]] && kill -0 "$pid" 2>/dev/null; then
      echo "process $pid ignored SIGTERM; killing"
      kill -KILL "$pid" 2>/dev/null || true
    fi
  done
  wait 2>/dev/null || true
  rm -rf "$work"
  exit $status
}
trap cleanup EXIT INT TERM

echo "== build"
go build -o "$work/graphpiped" ./cmd/graphpiped
go build -o "$work/graphpipe-lb" ./cmd/graphpipe-lb
go build -o "$work/fleetgen" ./cmd/fleetgen

peers=""
for i in 0 1 2; do
  peers="$peers,http://127.0.0.1:$((base_port + i))"
done
peers="${peers#,}"

echo "== boot 3 shards ($peers)"
for i in 0 1 2; do
  port=$((base_port + i))
  "$work/graphpiped" -addr "127.0.0.1:$port" -cache-dir "$work/cache$i" \
    -self "http://127.0.0.1:$port" -peers "$peers" &
  pids+=($!)
done

echo "== boot router on :$lb_port"
"$work/graphpipe-lb" -addr "127.0.0.1:$lb_port" -backends "$peers" &
pids+=($!)

for url in ${peers//,/ } "$lb"; do
  up=""
  for _ in $(seq 1 50); do
    curl -fsS "$url/v1/stats" >/dev/null 2>&1 && { up=1; break; }
    sleep 0.2
  done
  [[ -n "$up" ]] || { echo "$url never came up"; exit 1; }
done

req='{"model":"case-study","devices":4}'

echo "== cold plan through the router"
curl -fsS -D "$work/cold.h" -o "$work/cold.json" -X POST "$lb/v1/plan" -d "$req"
grep -i '^x-graphpipe-cache: miss' "$work/cold.h" \
  || { echo "cold request was not a miss:"; cat "$work/cold.h"; exit 1; }
fp="$(sed -n 's/^[Xx]-[Gg]raphpipe-[Ff]ingerprint: *//p' "$work/cold.h" | tr -d '\r')"
[[ ${#fp} -eq 64 ]] || { echo "bad fingerprint header: '$fp'"; exit 1; }
owner="$(sed -n 's/^[Xx]-[Gg]raphpipe-[Bb]ackend: *//p' "$work/cold.h" | tr -d '\r')"
echo "   fingerprint $fp planned on $owner"

echo "== every shard serves the artifact byte-identically (peer fill)"
for url in ${peers//,/ }; do
  curl -fsS -o "$work/art.json" "$url/v1/artifacts/$fp"
  cmp "$work/cold.json" "$work/art.json" \
    || { echo "shard $url served different bytes for $fp"; exit 1; }
done

echo "== no second cold search: fleet planned exactly once, filled twice"
curl -fsS "$lb/v1/stats" > "$work/stats.json"
# The fleet-summed block renders first in the stats body, so the first
# occurrence of each counter is the fleet-wide value.
grep -m1 '"planned"' "$work/stats.json" | grep -q '"planned": *1' \
  || { echo "fleet planned != 1:"; grep -m1 '"planned"' "$work/stats.json"; exit 1; }
grep -m1 '"peer_fills"' "$work/stats.json" | grep -q '"peer_fills": *2' \
  || { echo "fleet peer_fills != 2:"; grep -m1 '"peer_fills"' "$work/stats.json"; exit 1; }

echo "== skewed replay through the router (fleetgen)"
"$work/fleetgen" -target "$lb" -requests 120 -concurrency 8 -zipf 1.2 \
  -population 8 -devices 2,4 -seed 7 -min-hit-ratio 0.5 -max-errors 0 \
  -o "$work/fleetgen.json" | tee "$work/fleet-bench.txt"

echo "== warm fleet path must beat a cold plan (warm p99 < cold p50)"
# fleetgen's bench line is "BenchmarkFleetGen 1" then value/metric pairs.
# A replay without warm or cold requests omits that metric, and a missing
# metric fails the gate rather than skipping it.
metric() {
  awk -v m="$1" '$1 == "BenchmarkFleetGen" { for (i = 3; i < NF; i += 2) if ($(i + 1) == m) print $i }' \
    "$work/fleet-bench.txt"
}
warm="$(metric fleet_warm_p99_s)"
cold="$(metric fleet_cold_p50_s)"
[[ -n "$warm" && -n "$cold" ]] \
  || { echo "fleetgen reported no fleet_warm_p99_s ('$warm') or fleet_cold_p50_s ('$cold')"; exit 1; }
awk -v w="$warm" -v c="$cold" 'BEGIN { exit !(w + 0 < c + 0) }' \
  || { echo "fleet warm path regressed: warm p99 ${warm}s >= cold p50 ${cold}s"; exit 1; }
echo "   warm p99 ${warm}s < cold p50 ${cold}s"

echo "== graceful shutdown (SIGTERM all)"
for pid in "${pids[@]}"; do
  kill -TERM "$pid"
done
for pid in "${pids[@]}"; do
  wait "$pid"
done
pids=()
echo "fleet smoke OK"
