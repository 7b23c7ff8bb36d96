#!/usr/bin/env bash
# Release digests: runs serd_cli over a fixed case set and prints one line
# per case — the case, a sha256 over its release files, and the printed
# rejection counts, S3 line and JSD line. Two builds released the same
# bytes when their outputs `diff` clean:
#
#   scripts/release_digests.sh [--quick] BUILD_DIR [ARTIFACT_DIR]
#
# The full set (132 cases):
#   - cold dblp-acm@0.02 seed 7 and restaurant@0.1 seed 11, over
#     --blocking off|qgram|auto, the default --label-cap and 0, and
#     --threads 1 and 4 (24);
#   - cold walmart-amazon@0.02, itunes-amazon@0.02 and dblp-acm@0.04 at
#     seed 7, and restaurant@0.05 at seed 3 (4);
#   - warm dblp-acm@0.02 seeds 1000-1099 and warm restaurant@0.1 seeds
#     1000-1003, --threads 1, from seed-42 artifacts (104).
# --quick runs only dblp-acm@0.02 seed 7 and restaurant@0.1 seed 11, cold,
# with the default blocking and cap, at 1 and 4 threads.
#
# Warm cases load ARTIFACT_DIR/dblp-acm and ARTIFACT_DIR/restaurant; an
# artifact missing there is first trained and saved by this build. Give
# two builds the same ARTIFACT_DIR so both read the same artifacts.
#
# Exits 1 when a run fails or a case's release differs between its
# 1-thread and 4-thread runs (the output must not depend on the thread
# count), 2 on a usage error.
set -euo pipefail

usage() {
  echo "usage: $0 [--quick] BUILD_DIR [ARTIFACT_DIR]" >&2
  exit 2
}

QUICK=0
if [[ "${1:-}" == "--quick" ]]; then
  QUICK=1
  shift
fi
[[ $# -ge 1 && $# -le 2 ]] || usage
CLI="$1/examples/serd_cli"
[[ -x "$CLI" ]] || { echo "no serd_cli at $CLI" >&2; exit 2; }
WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT
ARTIFACTS="${2:-$WORK/artifacts}"

STATUS=0
declare -A BY_THREADS  # case without its thread count -> digest line

# run_case NAME ARGS...: one serd_cli release, printed as one line.
run_case() {
  local name="$1"
  shift
  local out="$WORK/release" log
  rm -rf "$out"
  if ! log="$("$CLI" "$@" --out "$out" 2>&1)"; then
    echo "$name FAILED"
    echo "$log" >&2
    STATUS=1
    return
  fi
  local sha rejections s3 jsd digest
  sha="$(cd "$out" && find . -type f | LC_ALL=C sort | xargs sha256sum |
    sha256sum | cut -d' ' -f1)"
  rejections="$(grep -o 'rejected(disc)=.*' <<<"$log" || true)"
  s3="$(grep '^S3: ' <<<"$log" || true)"
  jsd="$(grep '^JSD(O_real, O_syn)' <<<"$log" || true)"
  digest="$sha $rejections | $s3 | $jsd"
  echo "$name $digest"

  if [[ "$name" == *" threads="* ]]; then
    local key="${name% threads=*}"
    if [[ -z "${BY_THREADS[$key]+set}" ]]; then
      BY_THREADS[$key]="$digest"
    elif [[ "${BY_THREADS[$key]}" != "$digest" ]]; then
      echo "thread-count mismatch: $key" >&2
      STATUS=1
    fi
  fi
}

COLD_SETS=("dblp-acm 0.02 7" "restaurant 0.1 11")
for set in "${COLD_SETS[@]}"; do
  read -r dataset scale seed <<<"$set"
  base=(--dataset "$dataset" --scale "$scale" --seed "$seed")
  if [[ "$QUICK" == 1 ]]; then
    for threads in 1 4; do
      run_case "cold $dataset@$scale seed=$seed threads=$threads" \
        "${base[@]}" --threads "$threads"
    done
    continue
  fi
  for blocking in off qgram auto; do
    for cap in default 0; do
      cap_args=()
      [[ "$cap" == default ]] || cap_args=(--label-cap "$cap")
      name="cold $dataset@$scale seed=$seed blocking=$blocking cap=$cap"
      for threads in 1 4; do
        run_case "$name threads=$threads" "${base[@]}" \
          --blocking "$blocking" "${cap_args[@]}" --threads "$threads"
      done
    done
  done
done
[[ "$QUICK" == 1 ]] && exit "$STATUS"

for set in "walmart-amazon 0.02 7" "itunes-amazon 0.02 7" \
  "dblp-acm 0.04 7" "restaurant 0.05 3"; do
  read -r dataset scale seed <<<"$set"
  run_case "cold $dataset@$scale seed=$seed" \
    --dataset "$dataset" --scale "$scale" --seed "$seed" --threads 4
done

for set in "dblp-acm 0.02 1099" "restaurant 0.1 1003"; do
  read -r dataset scale last <<<"$set"
  models="$ARTIFACTS/$dataset"
  if [[ ! -f "$models/serd_models.bin" ]]; then
    "$CLI" --dataset "$dataset" --scale "$scale" --seed 42 --threads 4 \
      --save-models "$models" >/dev/null
  fi
  for seed in $(seq 1000 "$last"); do
    run_case "warm $dataset@$scale seed=$seed" --dataset "$dataset" \
      --scale "$scale" --seed "$seed" --threads 1 --load-models "$models"
  done
done
exit "$STATUS"
