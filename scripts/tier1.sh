#!/usr/bin/env bash
# Tier-1 verification:
#   1. regular build + full test suite (the ROADMAP.md tier-1 command),
#   2. ThreadSanitizer build (-DSANITIZE=thread) of the concurrency
#      surface — the parallel-round determinism harness plus the thread
#      pool / logging tests — and a TSan-clean run of it,
#   3. ASan+UBSan build (-DSANITIZE=address+undefined) of the
#      incremental-engine surface — delta computation, the longitudinal
#      index, the cache-reuse rounds, and the checkpoint codec's
#      corruption/truncation battery (the loader must stay clean on
#      attacker-grade input) — and a clean run of it,
#   4. ASan/UBSan fault soak: the RTR wire-error and lifecycle suites
#      plus the fault-injection suites, including the 200-day
#      high-fault-rate soak (FaultSoak) that drives relying-party runs,
#      corrupt-PDU teardowns, and per-AS view installs hot,
#   5. crash/resume end-to-end: a 6-round series killed after round 3
#      (--die-after simulates SIGKILL: no destructors, no exit
#      checkpoint), resumed from its checkpoint at a different thread
#      count, must publish CSVs byte-identical to an uninterrupted run,
#   6. the same crash/resume plus an incremental-vs-full byte-diff on a
#      SLURM-policy series (--slurm-fraction): delta installs must run
#      through the per-view dirty-set path of apply_vrp_delta, and the
#      published CSVs may not depend on incremental mode, thread count,
#      or where the series was interrupted,
#   7. the same contract under fault injection (--rp-failure-rate /
#      --rp-divergence-fraction / --rtr-drop-rate): kill mid-series,
#      resume at a different thread count, and byte-diff against both an
#      uninterrupted incremental run and a full recompute,
#   8. TSan epoch-snapshot stress: multi-seed readers-vs-installer
#      harness (reader threads pinned to an epoch across >= 3
#      concurrent publishes, including a zero-VRP-delta fault-window
#      flip) plus the lifecycle/immutability property suites, all under
#      -DSANITIZE=thread (runs as stage 2b, before the ASan stages),
#   9. engine equivalence: the epoch-snapshot and replica engines must
#      publish byte-identical CSVs, and a faulted series killed under
#      one engine must resume under the other and byte-match an
#      uninterrupted run, degradation.csv included,
#  10. docs consistency: every `--flag` the built CLI prints in its
#      --help output must appear in README.md, every `--flag` in a
#      README CLI reference row (`| `<command>` | ...`) must appear in
#      the --help output (a deleted flag cannot linger in the docs), and
#      every
#      `docs/FORMATS.md §N` / `FORMATS.md section N` reference made
#      from code or data files must resolve to a `## N.` heading in
#      docs/FORMATS.md (runs as stage 1b, right after the build),
#  11. bench_scale smoke: the scaling bench's --smoke shape (~5k ASes)
#      must complete under a wall-clock ceiling with every internal
#      check green ("ok": true) — digests thread-invariant, zero flat
#      fallbacks, LPM spot-checks passing (stage 1c),
#  12. RVLA archive end-to-end: a longitudinal run with --archive, then
#      `rovista analyze --publish` straight off the archive, byte-diffed
#      against the CSVs the in-memory store published during the run;
#      plus bench_analytics --smoke under a wall-clock ceiling with its
#      streaming-vs-store identity gates green ("ok": true).
#
# Every stage runs under its own timeout and the script fails fast: the
# first stage to fail (or hang past its budget) stops the run with a
# labeled message. ctest gets -j consistently; override parallelism with
# JOBS=N.
set -euo pipefail
cd "$(dirname "$0")/.."

JOBS="${JOBS:-$(nproc)}"

STAGE=""
stage() {
  STAGE="$1"
  echo "=== tier1: $STAGE ==="
}
trap '[ -n "$STAGE" ] && echo "tier-1 FAILED during: $STAGE" >&2' ERR

# Per-stage timeout (seconds as $1); 124/137 from `timeout` means hung.
t() { timeout --kill-after=30 "$@"; }

stage "build + full test suite"
t 900 cmake -B build -S .
t 1800 cmake --build build -j "$JOBS"
t 1800 ctest --test-dir build --output-on-failure -j "$JOBS"

stage "docs consistency (--help flags vs README, FORMATS.md references)"
DOCS_TMP="$(mktemp -d)"
trap 'rm -rf "$DOCS_TMP"' EXIT
# --help exits non-zero by design (it is the usage path); the output is
# what we are after. Fail if it produced no flags at all.
build/tools/rovista --help > "$DOCS_TMP/help.txt" 2>&1 || true
grep -oE -- '--[a-z][a-z0-9-]*' "$DOCS_TMP/help.txt" | sort -u \
  > "$DOCS_TMP/flags.txt"
if [ ! -s "$DOCS_TMP/flags.txt" ]; then
  echo "rovista --help printed no flags" >&2
  exit 1
fi
missing=0
while IFS= read -r flag; do
  grep -q -- "$flag" README.md || {
    echo "flag $flag from --help is undocumented in README.md" >&2
    missing=1
  }
done < "$DOCS_TMP/flags.txt"
# The reverse direction: README's CLI reference rows may document only
# flags the built CLI still prints.
grep -E '^\| `[a-z][a-z-]*( [a-z]+)?` \|' README.md \
  | grep -oE -- '--[a-z][a-z0-9-]*' | sort -u > "$DOCS_TMP/readme_flags.txt"
if [ ! -s "$DOCS_TMP/readme_flags.txt" ]; then
  echo "README.md has no CLI reference rows with flags" >&2
  exit 1
fi
while IFS= read -r flag; do
  grep -qxF -- "$flag" "$DOCS_TMP/flags.txt" || {
    echo "flag $flag in README.md's CLI reference is not in --help" >&2
    missing=1
  }
done < "$DOCS_TMP/readme_flags.txt"
# Every FORMATS.md section referenced from code/tests/bench/tools/data
# must exist as a "## N." heading — references may not outlive the spec.
grep -rhoE 'FORMATS\.md (§|section )[0-9]+' src tests bench tools \
  | grep -oE '[0-9]+$' | sort -u > "$DOCS_TMP/refs.txt"
while IFS= read -r sec; do
  grep -qE "^## ${sec}\." docs/FORMATS.md || {
    echo "code references FORMATS.md §$sec but no '## $sec.' heading exists" >&2
    missing=1
  }
done < "$DOCS_TMP/refs.txt"
if [ "$missing" -ne 0 ]; then
  echo "docs drifted from the built CLI / format specs" >&2
  exit 1
fi

stage "bench_scale smoke (scaling contract under a wall-clock ceiling)"
# The full shape takes ~30 s; the smoke shape (~5k ASes) must stay well
# under a minute even on a loaded runner. bench_scale exits non-zero on
# any internal check failure; we also assert the emitted verdict.
t 120 build/bench/bench_scale --smoke --out "$DOCS_TMP/bench_scale_smoke.json" \
  > "$DOCS_TMP/bench_scale_smoke.log"
grep -q '"ok": true' "$DOCS_TMP/bench_scale_smoke.json" || {
  echo "bench_scale --smoke emitted ok=false" >&2
  cat "$DOCS_TMP/bench_scale_smoke.log" >&2 || true
  exit 1
}

stage "TSan parallel-round surface"
t 900 cmake -B build-tsan -S . -DSANITIZE=thread
t 1800 cmake --build build-tsan -j "$JOBS" \
  --target test_parallel_round test_util test_ipid_properties
t 1800 ctest --test-dir build-tsan --output-on-failure -j "$JOBS" \
  -R 'ParallelRound|ThreadPool|Logging|IpIdArithmetic|Spike|BackgroundCutoff'

stage "TSan epoch-snapshot stress (readers vs concurrent installer)"
# Multi-seed readers-vs-installer harness: reader threads score against
# pinned epochs while the publisher concurrently applies deltas and
# fault-window flips (including a zero-VRP-delta flip) and publishes
# >= 3 epochs per seed. Any state shared mutably across the publish
# boundary is a TSan report here. The lifecycle/immutability property
# suites run under TSan too.
t 1800 cmake --build build-tsan -j "$JOBS" \
  --target test_snapshot test_snapshot_stress test_serve_stress
t 1800 ctest --test-dir build-tsan --output-on-failure -j "$JOBS" \
  -L tsan-stress
t 1800 ctest --test-dir build-tsan --output-on-failure -j "$JOBS" \
  -R 'SnapshotFreeze|SnapshotLifecycle|SnapshotImmutability|SnapshotReader|SnapshotFactory'

stage "ASan/UBSan incremental + checkpoint surface"
t 900 cmake -B build-asan -S . -DSANITIZE=address+undefined
t 1800 cmake --build build-asan -j "$JOBS" \
  --target test_vrp_delta test_longitudinal_index test_incremental_round \
           test_checkpoint test_rvla test_rtr test_faults
t 1800 ctest --test-dir build-asan --output-on-failure -j "$JOBS" \
  -R 'VrpDelta|LongitudinalIndex|IncrementalRound|Wire|Checkpoint|ScoreCacheRestore|Rvla'

stage "ASan/UBSan fault soak (RTR lifecycle + fault injection)"
t 1800 ctest --test-dir build-asan --output-on-failure -j "$JOBS" \
  -R 'RtrLifecycle|FaultSchedule|FaultChainScenario|FaultSoak|FaultedIncremental'

CK_TMP="$(mktemp -d)"
trap 'rm -rf "$CK_TMP" "$DOCS_TMP"' EXIT
CLI=build/tools/rovista

# The query server under ASan/UBSan: start the daemon on an ephemeral
# port, hammer it with the bundled loadgen *while* the engine is still
# publishing rounds (the loadgen bootstrap waits for round 1), then
# again at steady state, and byte-compare every recorded SCORE response
# against the CSVs the same daemon published. A torn read across an
# epoch swap, a leak, or an unflushed response on SIGTERM all fail here.
stage "ASan serve daemon: concurrent-publish burst + byte-compare + SIGTERM"
t 1800 cmake --build build-asan -j "$JOBS" --target rovista
ACLI=build-asan/tools/rovista
SERVE_DIR="$CK_TMP/serve"
mkdir -p "$SERVE_DIR"
"$ACLI" serve --seed 11 --rounds 3 --interval-days 20 --scale small \
  --port 0 --workers 2 --publish "$SERVE_DIR/pub" \
  > "$SERVE_DIR/serve.log" 2> "$SERVE_DIR/serve.err" &
SERVE_PID=$!
PORT=""
for _ in $(seq 1 300); do
  PORT="$(awk '/^LISTENING/ {print $2; exit}' "$SERVE_DIR/serve.log")"
  [ -n "$PORT" ] && break
  sleep 0.1
done
if [ -z "$PORT" ]; then
  echo "serve daemon never printed LISTENING" >&2
  kill -9 "$SERVE_PID" 2>/dev/null || true
  cat "$SERVE_DIR/serve.err" >&2 || true
  exit 1
fi
t 600 "$ACLI" loadgen --port "$PORT" --requests 4000 --connections 6 \
  --threads 3 --record "$SERVE_DIR/burst1.csv" >/dev/null
for _ in $(seq 1 600); do
  grep -q '^PUBLISHED ' "$SERVE_DIR/serve.log" && break
  sleep 0.5
done
grep -q '^PUBLISHED ' "$SERVE_DIR/serve.log" || {
  echo "serve daemon never published its CSV dataset" >&2
  kill -9 "$SERVE_PID" 2>/dev/null || true
  cat "$SERVE_DIR/serve.err" >&2 || true
  exit 1
}
t 600 "$ACLI" loadgen --port "$PORT" --requests 4000 --connections 6 \
  --threads 3 --traj-fraction 0.2 --record "$SERVE_DIR/burst2.csv" \
  >/dev/null
kill -TERM "$SERVE_PID"
status=0
wait "$SERVE_PID" || status=$?
if [ "$status" -ne 0 ]; then
  echo "serve daemon exited $status on SIGTERM (sanitizer report?)" >&2
  cat "$SERVE_DIR/serve.err" >&2 || true
  exit 1
fi
grep -q '^SERVED ' "$SERVE_DIR/serve.log" || {
  echo "serve daemon exited without its SERVED summary line" >&2
  exit 1
}
t 300 "$ACLI" feedcheck --record "$SERVE_DIR/burst1.csv" \
  --published "$SERVE_DIR/pub" >/dev/null
t 300 "$ACLI" feedcheck --record "$SERVE_DIR/burst2.csv" \
  --published "$SERVE_DIR/pub" >/dev/null

stage "crash/resume byte-diff"
# `|| status=$?` (not `set +e`) — the ERR trap fires even with -e off,
# and this kill is supposed to happen.
status=0
t 900 "$CLI" longitudinal --seed 11 --rounds 6 --interval-days 20 \
  --scale small --checkpoint-dir "$CK_TMP/ck" --die-after 3 >/dev/null \
  || status=$?
if [ "$status" -ne 137 ]; then
  echo "expected the --die-after run to die with 137, got $status" >&2
  exit 1
fi
t 300 "$CLI" checkpoint inspect --dir "$CK_TMP/ck" >/dev/null
t 900 "$CLI" longitudinal --seed 11 --rounds 6 --interval-days 20 \
  --scale small --checkpoint-dir "$CK_TMP/ck" --resume --threads 4 \
  --publish "$CK_TMP/resumed" >/dev/null
t 900 "$CLI" longitudinal --seed 11 --rounds 6 --interval-days 20 \
  --scale small --publish "$CK_TMP/uninterrupted" >/dev/null
diff -r "$CK_TMP/resumed" "$CK_TMP/uninterrupted" >/dev/null || {
  echo "resumed series published different CSV bytes" >&2
  exit 1
}

# RVLA archive end-to-end: the round loop appends one frame per round;
# `analyze` must reproduce the published dataset byte-for-byte straight
# off the archive, and the streaming-query bench's identity gates must
# hold at smoke scale under a wall-clock ceiling.
stage "RVLA archive: analyze byte-diff + bench_analytics smoke"
t 900 "$CLI" longitudinal --seed 11 --rounds 5 --interval-days 20 \
  --scale small --archive "$CK_TMP/rvla" --publish "$CK_TMP/rvla-store" \
  >/dev/null
t 300 "$CLI" analyze --archive "$CK_TMP/rvla" >/dev/null
t 300 "$CLI" analyze --archive "$CK_TMP/rvla" \
  --publish "$CK_TMP/rvla-analyze" >/dev/null
diff -r "$CK_TMP/rvla-store" "$CK_TMP/rvla-analyze" >/dev/null || {
  echo "analyze published different CSV bytes than the in-memory store" >&2
  exit 1
}
t 120 build/bench/bench_analytics --smoke \
  --out "$CK_TMP/bench_analytics_smoke.json" \
  > "$CK_TMP/bench_analytics_smoke.log"
grep -q '"ok": true' "$CK_TMP/bench_analytics_smoke.json" || {
  echo "bench_analytics --smoke emitted ok=false" >&2
  cat "$CK_TMP/bench_analytics_smoke.log" >&2 || true
  exit 1
}

# SLURM-policy series: crash/resume and incremental-vs-full byte-identity
# with local exceptions in play.
stage "SLURM crash/resume + incremental-vs-full byte-diff"
status=0
t 900 "$CLI" longitudinal --seed 11 --rounds 6 --interval-days 20 \
  --scale small --slurm-fraction 0.35 --checkpoint-dir "$CK_TMP/slurm-ck" \
  --die-after 2 >/dev/null || status=$?
if [ "$status" -ne 137 ]; then
  echo "expected the SLURM --die-after run to die with 137, got $status" >&2
  exit 1
fi
t 900 "$CLI" longitudinal --seed 11 --rounds 6 --interval-days 20 \
  --scale small --slurm-fraction 0.35 --checkpoint-dir "$CK_TMP/slurm-ck" \
  --resume --threads 4 --publish "$CK_TMP/slurm-resumed" >/dev/null
t 900 "$CLI" longitudinal --seed 11 --rounds 6 --interval-days 20 \
  --scale small --slurm-fraction 0.35 --publish "$CK_TMP/slurm-incr" \
  >/dev/null
t 900 "$CLI" longitudinal --seed 11 --rounds 6 --interval-days 20 \
  --scale small --slurm-fraction 0.35 --incremental off \
  --publish "$CK_TMP/slurm-full" >/dev/null
diff -r "$CK_TMP/slurm-resumed" "$CK_TMP/slurm-incr" >/dev/null || {
  echo "SLURM resumed series published different CSV bytes" >&2
  exit 1
}
diff -r "$CK_TMP/slurm-incr" "$CK_TMP/slurm-full" >/dev/null || {
  echo "SLURM incremental series diverged from full recompute" >&2
  exit 1
}

# Fault-injected series: the checkpoint lands mid-failure-window (the
# RVCP version-2 container), the resume replays the same fault world,
# and neither incremental mode, thread count, nor the interruption point
# may change a published byte — degradation.csv included.
stage "fault-injection crash/resume + incremental-vs-full byte-diff"
FAULT_KNOBS="--rp-failure-rate 0.3 --rp-divergence-fraction 0.25 \
  --rtr-drop-rate 0.3"
status=0
# shellcheck disable=SC2086
t 900 "$CLI" longitudinal --seed 11 --rounds 6 --interval-days 20 \
  --scale small $FAULT_KNOBS --checkpoint-dir "$CK_TMP/fault-ck" \
  --die-after 3 >/dev/null || status=$?
if [ "$status" -ne 137 ]; then
  echo "expected the faulted --die-after run to die with 137, got $status" >&2
  exit 1
fi
t 300 "$CLI" checkpoint inspect --dir "$CK_TMP/fault-ck" >/dev/null
# shellcheck disable=SC2086
t 900 "$CLI" longitudinal --seed 11 --rounds 6 --interval-days 20 \
  --scale small $FAULT_KNOBS --checkpoint-dir "$CK_TMP/fault-ck" \
  --resume --threads 4 --publish "$CK_TMP/fault-resumed" >/dev/null
# shellcheck disable=SC2086
t 900 "$CLI" longitudinal --seed 11 --rounds 6 --interval-days 20 \
  --scale small $FAULT_KNOBS --publish "$CK_TMP/fault-incr" >/dev/null
# shellcheck disable=SC2086
t 900 "$CLI" longitudinal --seed 11 --rounds 6 --interval-days 20 \
  --scale small $FAULT_KNOBS --incremental off \
  --publish "$CK_TMP/fault-full" >/dev/null
if [ ! -s "$CK_TMP/fault-incr/degradation.csv" ]; then
  echo "faulted series published no degradation.csv" >&2
  exit 1
fi
diff -r "$CK_TMP/fault-resumed" "$CK_TMP/fault-incr" >/dev/null || {
  echo "faulted resumed series published different CSV bytes" >&2
  exit 1
}
diff -r "$CK_TMP/fault-incr" "$CK_TMP/fault-full" >/dev/null || {
  echo "faulted incremental series diverged from full recompute" >&2
  exit 1
}

# Epoch-snapshot vs replica engine: the execution strategy may not
# change a published byte, and RVCP checkpoints must cross engines — a
# faulted series killed under the replica engine resumes under the
# snapshot engine and still byte-matches an uninterrupted
# snapshot-engine run, degradation.csv included.
stage "engine equivalence byte-diff (snapshot vs replica)"
t 900 "$CLI" longitudinal --seed 11 --rounds 3 --interval-days 20 \
  --scale small --engine snapshot --threads 4 \
  --publish "$CK_TMP/eng-snap" >/dev/null
t 900 "$CLI" longitudinal --seed 11 --rounds 3 --interval-days 20 \
  --scale small --engine replica --threads 4 \
  --publish "$CK_TMP/eng-repl" >/dev/null
diff -r "$CK_TMP/eng-snap" "$CK_TMP/eng-repl" >/dev/null || {
  echo "snapshot and replica engines published different CSV bytes" >&2
  exit 1
}
status=0
# shellcheck disable=SC2086
t 900 "$CLI" longitudinal --seed 11 --rounds 6 --interval-days 20 \
  --scale small $FAULT_KNOBS --engine replica \
  --checkpoint-dir "$CK_TMP/eng-ck" --die-after 3 >/dev/null || status=$?
if [ "$status" -ne 137 ]; then
  echo "expected the replica-engine --die-after run to die with 137, got $status" >&2
  exit 1
fi
# shellcheck disable=SC2086
t 900 "$CLI" longitudinal --seed 11 --rounds 6 --interval-days 20 \
  --scale small $FAULT_KNOBS --engine snapshot \
  --checkpoint-dir "$CK_TMP/eng-ck" --resume --threads 4 \
  --publish "$CK_TMP/eng-resumed" >/dev/null
# shellcheck disable=SC2086
t 900 "$CLI" longitudinal --seed 11 --rounds 6 --interval-days 20 \
  --scale small $FAULT_KNOBS --engine snapshot \
  --publish "$CK_TMP/eng-uninterrupted" >/dev/null
if [ ! -s "$CK_TMP/eng-uninterrupted/degradation.csv" ]; then
  echo "snapshot-engine faulted series published no degradation.csv" >&2
  exit 1
fi
diff -r "$CK_TMP/eng-resumed" "$CK_TMP/eng-uninterrupted" >/dev/null || {
  echo "cross-engine resumed series published different CSV bytes" >&2
  exit 1
}

STAGE=""
echo "tier-1 OK (tests + docs consistency + bench_scale smoke" \
     "+ TSan parallel round + TSan snapshot stress" \
     "+ ASan/UBSan incremental + checkpoint corruption battery" \
     "+ ASan fault soak + crash/resume byte-diff + SLURM byte-diff" \
     "+ fault byte-diff + engine-equivalence byte-diff" \
     "+ RVLA analyze byte-diff + bench_analytics smoke)"
