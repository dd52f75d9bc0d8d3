#!/usr/bin/env bash
# Wall-clock A/B of the perfbench benchmark: a git revision against the
# working tree.
#
#   bash bench/perf_ab.sh BASE WORKLOAD SEED PAIRS     (or: make perf-ab ...)
#
# Clones BASE into a temp dir, then runs
#   perfbench/run.sh --workload WORKLOAD --seed SEED --seconds 10 --trace 0
# PAIRS times in each tree, one pair at a time, alternating which tree
# runs first. Prints each side's quartiles of execs_per_wall_s and
# minor_words_per_exec and how many pairs each side won on
# execs_per_wall_s. Exits 1 if a run is not correct, or if
# execs_per_virtual_s or final_edges differ between the sides: they
# repeat exactly for a seed, so a change that only moves cost keeps them.
set -euo pipefail

if [ $# -ne 4 ]; then
  echo "usage: $0 BASE WORKLOAD SEED PAIRS" >&2
  exit 2
fi
base=$1 workload=$2 seed=$3 pairs=$4
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
rev="$(git -C "$root" rev-parse --verify --short "$base^{commit}")"

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT
git clone -q --no-checkout "$root" "$tmp/base"
git -C "$tmp/base" checkout -q --detach "$rev"

# One run in tree $1; appends "wall words virtual edges" to $2.
run() {
  local json
  json="$(bash "$1/perfbench/run.sh" --workload "$workload" --seed "$seed" \
    --seconds 10 --trace 0 2>/dev/null | tail -n 1)"
  if ! jq -e '.correct == true and .failed == 0' <<<"$json" >/dev/null; then
    echo "perf-ab: a run in $1 was not correct: $json" >&2
    exit 1
  fi
  jq -r '.metrics | [.execs_per_wall_s, .minor_words_per_exec, .execs_per_virtual_s,
    .final_edges] | map(.value) | join(" ")' <<<"$json" >>"$2"
}

for i in $(seq 1 "$pairs"); do
  if [ $((i % 2)) -eq 1 ]; then
    run "$tmp/base" "$tmp/base.txt"
    run "$root" "$tmp/change.txt"
  else
    run "$root" "$tmp/change.txt"
    run "$tmp/base" "$tmp/base.txt"
  fi
  echo "perf-ab: pair $i/$pairs done" >&2
done

# "q1 median q3" of column $1 of file $2 (linear interpolation).
quartiles() {
  cut -d' ' -f"$1" "$2" | sort -g | awk '
    { v[NR] = $1 }
    function q(p,   h, l) { h = 1 + (NR - 1) * p; l = int(h); return v[l] + (h - l) * (v[l + 1] - v[l]) }
    END { v[NR + 1] = v[NR]; printf "%.1f / %.1f / %.1f", q(0.25), q(0.5), q(0.75) }'
}

echo "perf-ab: $workload, seed $seed, $pairs pairs: base $rev vs the working tree"
printf '%-8s %-36s %s\n' "side" "execs_per_wall_s (q1 / median / q3)" \
  "minor_words_per_exec (q1 / median / q3)"
for side in base change; do
  printf '%-8s %-36s %s\n' "$side" "$(quartiles 1 "$tmp/$side.txt")" \
    "$(quartiles 2 "$tmp/$side.txt")"
done
paste -d' ' "$tmp/base.txt" "$tmp/change.txt" | awk '
  { if ($5 > $1) c++; else if ($1 > $5) b++ }
  END { printf "pairs won on execs_per_wall_s: change %d, base %d\n", c, b }'

base_det="$(cut -d' ' -f3,4 "$tmp/base.txt" | sort -u)"
change_det="$(cut -d' ' -f3,4 "$tmp/change.txt" | sort -u)"
if [ "$base_det" != "$change_det" ]; then
  echo "perf-ab: execs_per_virtual_s / final_edges differ: base [$base_det] change [$change_det]" >&2
  exit 1
fi
echo "execs_per_virtual_s and final_edges identical: $base_det"
