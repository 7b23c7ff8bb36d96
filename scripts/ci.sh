#!/usr/bin/env bash
# Tier-1 CI: the checks every PR must keep green (ROADMAP.md).
#
#   scripts/ci.sh              # build + full suite + sanitizer passes + smoke
#   SKIP_TSAN=1 scripts/ci.sh  # skip the ThreadSanitizer pass
#   SKIP_ASAN=1 scripts/ci.sh  # skip the Address/UB-Sanitizer pass
#   SKIP_SMOKE=1 scripts/ci.sh # skip the warm-start smoke stage
#
# Separate build trees keep the sanitizers from contaminating the main
# binaries: build/ (plain), build-tsan/ (-DSERD_SANITIZE=thread, suites
# labeled `tsan`), and build-asan/ (-DSERD_SANITIZE=address, i.e.
# ASan+UBSan, suites labeled `asan` — the artifact fault-injection tests,
# whose whole point is that corrupted bytes never cause out-of-bounds
# reads), and build-native/ (-DSERD_NATIVE=ON: no runtime dispatch, so the
# portable GEMM clone runs, compiled with -march=native).
set -euo pipefail
cd "$(dirname "$0")/.."

JOBS="${JOBS:-$(nproc)}"
CONCURRENCY_TESTS='CoreConcurrencyTest|ServeConcurrencyTest|SameTenantNoWaitJobs|RunOptionsFuzz'

echo "==> configure + build (plain)"
cmake -B build -S . >/dev/null
cmake --build build -j "$JOBS"

echo "==> ctest (full suite)"
ctest --test-dir build --output-on-failure -j "$JOBS"

echo "==> perf ledger: committed run reports agree on their work counts"
# Each perf change commits its parent and change perfbench reports under
# bench/ledger/NAME/ (bench/ledger/README.md). compare.py prints the
# verdicts and exits 1 when runs of one program, workload and seed
# report different work-identity counts.
for entry in bench/ledger/*/; do
  python3 perfbench/compare.py "${entry}parent" "${entry}change" >/dev/null
done

if [[ "${SKIP_TSAN:-0}" != "1" ]]; then
  echo "==> configure + build (ThreadSanitizer)"
  cmake -B build-tsan -S . -DSERD_SANITIZE=thread >/dev/null
  cmake --build build-tsan -j "$JOBS"

  echo "==> ctest -L tsan (ThreadSanitizer suite)"
  ctest --test-dir build-tsan --output-on-failure -j "$JOBS" -L tsan

  echo "==> ctest (concurrent runs on one synthesizer under TSan)"
  # Runs overlapping on one fitted synthesizer or warm pool entry, and the
  # RunOptions fuzzer; run by name so a label change can't drop them.
  ctest --test-dir build-tsan --output-on-failure -j "$JOBS" \
    -R "$CONCURRENCY_TESTS"
fi

if [[ "${SKIP_ASAN:-0}" != "1" ]]; then
  echo "==> configure + build (Address+UB Sanitizer)"
  cmake -B build-asan -S . -DSERD_SANITIZE=address >/dev/null
  cmake --build build-asan -j "$JOBS"

  echo "==> ctest -L asan (Address+UB Sanitizer suite)"
  ctest --test-dir build-asan --output-on-failure -j "$JOBS" -L asan

  echo "==> ctest (decode equivalence under ASan)"
  # The fuzz sweep asserting cached-decode logits match the full re-decode
  # reference, the KV-cache suite, and the encoder-memory cache's LRU
  # eviction; run by name so a label change can't silently drop them.
  ctest --test-dir build-asan --output-on-failure -j "$JOBS" \
    -R 'KvCacheFuzzSweep|KvCacheTest|EncoderMemoryCacheEvictsLruAtNinthSource'

  echo "==> ctest (concurrent runs on one synthesizer under ASan)"
  ctest --test-dir build-asan --output-on-failure -j "$JOBS" \
    -R "$CONCURRENCY_TESTS"
fi

echo "==> configure + build (SERD_NATIVE: portable kernel clone)"
# On an AVX2 host every other tree dispatches GEMMs and Exp to their AVX2
# clones, so this is the one pass that runs the portable variants, compiled
# with FMA contraction. The kernel tests hold the row-count and Exp
# contracts, nn_test the activation gradients built on them; the KV-cache
# oracles hold the decode; gmm_test holds the batched log-density and JSD
# estimator oracles; text_test holds the q-gram kernels (portable hashing,
# first occurrences, membership and intersection against the string
# sets) and gan_test the encoder's text features built on them.
NATIVE_TESTS=(kernels_test nn_test seq2seq_test gmm_test text_test gan_test)
cmake -B build-native -S . -DSERD_NATIVE=ON >/dev/null
cmake --build build-native -j "$JOBS" --target "${NATIVE_TESTS[@]}"

echo "==> portable-clone kernel, KV-cache and GMM oracles"
for t in "${NATIVE_TESTS[@]}"; do
  "build-native/tests/$t"
done

if [[ "${SKIP_SMOKE:-0}" != "1" ]]; then
  echo "==> warm-start smoke (train + save, reload, bit-identical output)"
  SMOKE_DIR="$(mktemp -d)"
  trap 'rm -rf "$SMOKE_DIR"' EXIT
  CLI=build/examples/serd_cli
  COMMON=(--dataset dblp-acm --scale 0.02 --seed 7 --threads 2)

  "$CLI" "${COMMON[@]}" --save-models "$SMOKE_DIR/models" \
    --out "$SMOKE_DIR/cold" --manifest "$SMOKE_DIR/cold.json"
  "$CLI" "${COMMON[@]}" --load-models "$SMOKE_DIR/models" \
    --out "$SMOKE_DIR/warm" --manifest "$SMOKE_DIR/warm.json"

  echo "==> smoke: released datasets must be bit-identical"
  diff -r "$SMOKE_DIR/cold" "$SMOKE_DIR/warm"

  echo "==> smoke: warm run loaded the artifact and skipped training"
  grep -q '"warm_started": true' "$SMOKE_DIR/warm.json"
  grep -q '"artifact.load_ok": 1' "$SMOKE_DIR/warm.json"
  if grep -q '"seq2seq.steps"' "$SMOKE_DIR/warm.json"; then
    echo "FAIL: warm manifest records transformer training steps" >&2
    exit 1
  fi

  echo "==> smoke: online (s2.*) metrics agree between cold and warm"
  # Timers (*seconds*) and trace spans (s2.loop) hold wall-clock values
  # that legitimately differ between runs; every deterministic s2 counter
  # and histogram must match exactly.
  grep '"s2\.' "$SMOKE_DIR/cold.json" | grep -v seconds | grep -v 's2\.loop' \
    > "$SMOKE_DIR/cold_s2.txt"
  grep '"s2\.' "$SMOKE_DIR/warm.json" | grep -v seconds | grep -v 's2\.loop' \
    > "$SMOKE_DIR/warm_s2.txt"
  diff "$SMOKE_DIR/cold_s2.txt" "$SMOKE_DIR/warm_s2.txt"

  echo "==> smoke: cold release digests agree at 1 and 4 threads"
  # DP-SGD training runs each lot's examples and noise draw, then its
  # merge and finish split by parameter, on the pool; the trained weights,
  # and so every released byte, must not depend on the thread count. The
  # quick digest set (dblp-acm@0.02 seed 7, restaurant@0.1 seed 11, cold)
  # fails when a case's two thread counts release different bytes or
  # print different JSD, rejection or S3 lines.
  scripts/release_digests.sh --quick build > "$SMOKE_DIR/digests.txt"
  cat "$SMOKE_DIR/digests.txt"

  echo "==> smoke: the quick digests are the committed ones"
  # scripts/release_digests.quick holds the quick set's lines as the last
  # change that moved released bytes left them; a change that moves them
  # must update the file and say why.
  diff scripts/release_digests.quick "$SMOKE_DIR/digests.txt"

  echo "==> smoke: a one-bucket string bank synthesizes end to end"
  # The bank builds its s2.bank_bucket histogram, whose bounds a single
  # bucket once broke, when training ends; the default bank's one gate
  # stays closed, so recording into it at K = 1 is held by
  # StringBankTest.OneBucketBankSynthesizesWithAndWithoutRegistry.
  "$CLI" --dataset restaurant --scale 0.05 --seed 7 --threads 2 --buckets 1 \
    --out "$SMOKE_DIR/buckets1" --manifest "$SMOKE_DIR/buckets1.json" \
    >/dev/null
  grep -q '"s2.bank_bucket"' "$SMOKE_DIR/buckets1.json"

  echo "==> smoke: KV-cached decode is bit-identical to the reference path"
  # Same seed, decode through the KV cache (default) vs the full re-decode
  # reference (--reference-decode): the released datasets must match byte
  # for byte, and each manifest must record the route its run took. The
  # default banks' keep gates stay closed, so the runs themselves decode
  # nothing; the decode left to compare is Fit's keep measurement, which
  # runs each trained bucket on the run's route and must count the same.
  "$CLI" "${COMMON[@]}" --out "$SMOKE_DIR/kv" --manifest "$SMOKE_DIR/kv.json"
  "$CLI" "${COMMON[@]}" --reference-decode --out "$SMOKE_DIR/ref" \
    --manifest "$SMOKE_DIR/ref.json"
  diff -r "$SMOKE_DIR/kv" "$SMOKE_DIR/ref"
  python3 - "$SMOKE_DIR/kv.json" "$SMOKE_DIR/ref.json" <<'EOF'
import json, sys
kv = json.load(open(sys.argv[1]))
ref = json.load(open(sys.argv[2]))
assert kv["options"]["incremental_decode"] is True
assert ref["options"]["incremental_decode"] is False
for man in (kv, ref):
    trained = [b for bank in man["string_banks"] for b in bank["buckets"]
               if b["trained"]]
    assert trained, "no trained bucket"
    assert all(b["decoded"] > 0 for b in trained), \
        "a trained bucket's keep measurement decoded nothing"
assert kv["string_banks"] == ref["string_banks"], \
    "decode routes measured different keep counts"
assert kv["report"]["decode_steps"] == ref["report"]["decode_steps"], \
    "decode paths drew different token streams"
EOF

  echo "==> smoke: q-gram blocking releases the exact scan's matches"
  # Same seed, exact O(|A|x|B|) scan (--blocking=off) vs the q-gram
  # inverted index (--blocking=qgram): with the default adaptive Jaccard
  # threshold the candidate set provably covers every pair the posterior
  # can accept here, so the released bytes — datasets AND match list —
  # must be identical, while the blocked run must have pruned real work.
  # --label-cap 0 keeps both runs exhaustive (the cap would sample the
  # two pair streams differently).
  "$CLI" "${COMMON[@]}" --label-cap 0 --blocking off \
    --out "$SMOKE_DIR/bl_off" --manifest "$SMOKE_DIR/bl_off.json"
  "$CLI" "${COMMON[@]}" --label-cap 0 --blocking qgram \
    --out "$SMOKE_DIR/bl_qgram" --manifest "$SMOKE_DIR/bl_qgram.json"
  diff -r "$SMOKE_DIR/bl_off" "$SMOKE_DIR/bl_qgram"
  grep -q '"s3_blocked": false' "$SMOKE_DIR/bl_off.json"
  grep -q '"s3_blocked": true' "$SMOKE_DIR/bl_qgram.json"
  python3 - "$SMOKE_DIR/bl_off.json" "$SMOKE_DIR/bl_qgram.json" <<'EOF'
import json, sys
off = json.load(open(sys.argv[1]))["report"]
blk = json.load(open(sys.argv[2]))["report"]
assert blk["s3_pruned_pairs"] > 0, "blocking pruned nothing"
assert blk["s3_scored_pairs"] < off["s3_scored_pairs"], \
    "blocked run scored as many pairs as the exact scan"
assert blk["s3_total_pairs"] == off["s3_total_pairs"], \
    "pair universes differ"
assert blk["s3_block_recall"] == 1.0, "recall estimator saw a miss"
assert blk["s3_block_recall_estimated"] == (blk["s3_pruned_pairs"] > 0), \
    "estimated-recall flag disagrees with pruning"
assert off["s3_block_recall_estimated"] is False, \
    "exact scan claims an estimated recall"
EOF

  echo "==> smoke: S3's labeler on the real Restaurant tables, exact vs blocked"
  # bench_blocking runs the labeler that Synthesize runs (LabelCrossPairs)
  # on E_real at scale 1.0, once as the exact scan and once over the
  # q-gram candidates; the two must label the same pairs.
  BENCH_BLOCKING="$PWD/build/bench/bench_blocking"
  (cd "$SMOKE_DIR" && "$BENCH_BLOCKING" --datasets restaurant --no-stress \
    > bench_blocking.txt)
  python3 - "$SMOKE_DIR/BENCH_blocking.json" <<'EOF'
import json, sys
rows = json.load(open(sys.argv[1]))["benchmarks"]
assert len(rows) == 1, rows
row = rows[0]
assert row["agree"] is True, "blocked match list differs from the exact scan"
assert row["recall"] == 1.0, "blocked labeling missed exact matches"
assert row["exact_matches"] == row["blocked_matches"], \
    "exact and blocked match counts differ"
EOF

  echo "==> smoke: --scale takes only finite positive values"
  for bad in -1 0 nan; do
    set +e
    timeout 60 "$CLI" --dataset restaurant --scale "$bad" \
      > /dev/null 2> "$SMOKE_DIR/scale.txt"
    SCALE_CODE=$?
    set -e
    [[ "$SCALE_CODE" == 2 ]]
    grep -q -- '--scale takes a positive finite number' "$SMOKE_DIR/scale.txt"
  done

  echo "==> smoke: the retired --decode-precision flag is a usage error"
  set +e
  "$CLI" --dataset restaurant --scale 0.05 --decode-precision int8 \
    > /dev/null 2> "$SMOKE_DIR/precision.txt"
  PRECISION_CODE=$?
  set -e
  [[ "$PRECISION_CODE" == 2 ]]
  grep -q '^usage: ' "$SMOKE_DIR/precision.txt"

  echo "==> smoke: a bad string-bank option is refused, not aborted"
  set +e
  "$CLI" --dataset restaurant --scale 0.05 --candidates 0 \
    > /dev/null 2> "$SMOKE_DIR/candidates0.txt"
  CANDIDATES_CODE=$?
  set -e
  [[ "$CANDIDATES_CODE" == 1 ]]
  grep -q 'InvalidArgument: string_bank.num_candidates must be >= 1' \
    "$SMOKE_DIR/candidates0.txt"
fi

if [[ "${SKIP_SERVE:-0}" != "1" ]]; then
  echo "==> serve smoke (server job output == serd_cli output, warm pool hit)"
  SERVE_DIR="$(mktemp -d)"
  SERVE_PID=""
  trap '[[ -n "$SERVE_PID" ]] && kill "$SERVE_PID" 2>/dev/null; rm -rf "$SERVE_DIR" "${SMOKE_DIR:-}"' EXIT
  CLI=build/examples/serd_cli
  SERVE=build/examples/serd_serve
  SUBMIT=build/examples/serd_submit
  JOB=(--dataset dblp-acm --scale 0.02 --seed 7 --data-seed 7
       --model-dir "$SERVE_DIR/models" --artifact-mode load)

  "$CLI" --dataset dblp-acm --scale 0.02 --seed 7 \
    --save-models "$SERVE_DIR/models" --out "$SERVE_DIR/cli_ref" >/dev/null

  "$SERVE" --port 0 --port-file "$SERVE_DIR/port" --workers 2 \
    > "$SERVE_DIR/serve.log" 2>&1 &
  SERVE_PID=$!
  for _ in $(seq 1 100); do
    [[ -s "$SERVE_DIR/port" ]] && break
    sleep 0.1
  done
  [[ -s "$SERVE_DIR/port" ]] || { cat "$SERVE_DIR/serve.log" >&2; exit 1; }

  echo "==> smoke: a served job byte-matches the serd_cli release"
  "$SUBMIT" --port-file "$SERVE_DIR/port" --verb synthesize "${JOB[@]}" \
    --out "$SERVE_DIR/job1" >/dev/null
  diff -r "$SERVE_DIR/cli_ref" "$SERVE_DIR/job1"

  echo "==> smoke: second identical job reuses the warm pool entry"
  "$SUBMIT" --port-file "$SERVE_DIR/port" --verb synthesize "${JOB[@]}" \
    --out "$SERVE_DIR/job2" >/dev/null
  diff -r "$SERVE_DIR/job1" "$SERVE_DIR/job2"
  "$SUBMIT" --port-file "$SERVE_DIR/port" --verb stats > "$SERVE_DIR/stats.json"
  grep -q '"pool.hits": 1' "$SERVE_DIR/stats.json"
  grep -q '"pool.misses": 1' "$SERVE_DIR/stats.json"

  echo "==> smoke: two no-wait jobs run together on one warm entry"
  # Both are queued before either is waited for, so the two workers run
  # them on the tenant's one entry at once; each must still byte-match
  # the serd_cli release of its seed, and the entry is never reloaded.
  for n in 1 2; do
    "$SUBMIT" --port-file "$SERVE_DIR/port" --verb synthesize "${JOB[@]}" \
      --no-wait --out "$SERVE_DIR/shared$n" > "$SERVE_DIR/shared$n.json"
  done
  for n in 1 2; do
    ID="$(python3 -c 'import json, sys; print(json.load(sys.stdin)["job"])' \
      < "$SERVE_DIR/shared$n.json")"
    for _ in $(seq 1 600); do
      "$SUBMIT" --port-file "$SERVE_DIR/port" --verb job --id "$ID" \
        > "$SERVE_DIR/shared$n.status.json" || true
      grep -q '"state": "\(done\|failed\)"' "$SERVE_DIR/shared$n.status.json" \
        && break
      sleep 0.1
    done
    grep -q '"state": "done"' "$SERVE_DIR/shared$n.status.json"
    diff -r "$SERVE_DIR/cli_ref" "$SERVE_DIR/shared$n"
  done
  "$SUBMIT" --port-file "$SERVE_DIR/port" --verb stats \
    > "$SERVE_DIR/stats_shared.json"
  grep -q '"pool.misses": 1' "$SERVE_DIR/stats_shared.json"

  echo "==> smoke: kill -9 a client mid-request; server keeps serving"
  # The abandoned job must still run to completion server-side (its seed
  # is content-keyed, the client is irrelevant once the frame landed) and
  # return its pool lease; health answers throughout. The sleep gives the
  # client time to get the request frame onto the wire before it dies.
  "$SUBMIT" --port-file "$SERVE_DIR/port" --verb synthesize "${JOB[@]}" \
    --seed-key abandoned --out "$SERVE_DIR/abandoned" >/dev/null 2>&1 &
  ABANDONED_PID=$!
  sleep 0.5
  kill -9 "$ABANDONED_PID" 2>/dev/null || true
  wait "$ABANDONED_PID" 2>/dev/null || true
  "$SUBMIT" --port-file "$SERVE_DIR/port" --verb health >/dev/null
  for _ in $(seq 1 100); do
    "$SUBMIT" --port-file "$SERVE_DIR/port" --verb stats \
      > "$SERVE_DIR/stats_fault.json"
    grep -q '"scheduler.completed": 5' "$SERVE_DIR/stats_fault.json" && break
    sleep 0.1
  done
  grep -q '"scheduler.completed": 5' "$SERVE_DIR/stats_fault.json"
  grep -q '"pool.pinned": 0' "$SERVE_DIR/stats_fault.json"

  echo "==> smoke: a 1 ms deadline trips and exits with code 7"
  set +e
  "$SUBMIT" --port-file "$SERVE_DIR/port" --verb synthesize "${JOB[@]}" \
    --seed-key doomed --deadline-ms 1 --out "$SERVE_DIR/doomed" \
    > "$SERVE_DIR/doomed.json"
  DOOMED_CODE=$?
  set -e
  [[ "$DOOMED_CODE" == 7 ]]   # DeadlineExceeded
  grep -q '"code": "DeadlineExceeded"' "$SERVE_DIR/doomed.json"
  [[ ! -e "$SERVE_DIR/doomed" ]]   # no partial release on disk
  "$SUBMIT" --port-file "$SERVE_DIR/port" --verb stats \
    > "$SERVE_DIR/stats_deadline.json"
  grep -q '"scheduler.deadline_exceeded": 1' "$SERVE_DIR/stats_deadline.json"

  echo "==> smoke: clean shutdown on the shutdown verb"
  "$SUBMIT" --port-file "$SERVE_DIR/port" --verb shutdown >/dev/null
  wait "$SERVE_PID"
  SERVE_PID=""
  grep -q 'bye' "$SERVE_DIR/serve.log"

  echo "==> smoke: artifact load failures exit with documented codes"
  set +e
  "$CLI" --dataset dblp-acm --scale 0.02 \
    --load-models "$SERVE_DIR/no_such_dir" 2> "$SERVE_DIR/err_missing.txt"
  MISSING_CODE=$?
  mkdir -p "$SERVE_DIR/garbage"
  # Long enough to hold a header, so the failure is bad magic (corrupt
  # container, exit 4), not a too-short read.
  printf 'definitely not a SERDMDL container: deliberately corrupt bytes\n' \
    > "$SERVE_DIR/garbage/serd_models.bin"
  "$CLI" --dataset dblp-acm --scale 0.02 \
    --load-models "$SERVE_DIR/garbage" 2> "$SERVE_DIR/err_garbage.txt"
  GARBAGE_CODE=$?
  # A bad option with a valid artifact is an option error, not a load one.
  "$CLI" --dataset dblp-acm --scale 0.02 --seed 7 --candidates 0 \
    --load-models "$SERVE_DIR/models" 2> "$SERVE_DIR/err_option.txt"
  OPTION_CODE=$?
  set -e
  [[ "$MISSING_CODE" == 3 ]]   # io: wrong path
  [[ "$GARBAGE_CODE" == 4 ]]   # corrupt container bytes
  [[ "$OPTION_CODE" == 1 ]]    # InvalidArgument option, before any load
  grep -q 'InvalidArgument: string_bank.num_candidates must be >= 1' \
    "$SERVE_DIR/err_option.txt"
  grep -q 'cause: io' "$SERVE_DIR/err_missing.txt"
  grep -q "$SERVE_DIR/no_such_dir" "$SERVE_DIR/err_missing.txt"
fi

echo "==> CI green"
