#!/bin/sh
# Tier-1 verification script.
#
# Job 1: regular build + full test suite (the ROADMAP.md tier-1 command; its
#        uprsim tests hold the golden, silo A/B and fault-replay byte gates)
#        plus the copy-path smoke bench (zero-copy ratio regression gate)
#        and the repo benchmark's own self-tests (perfbench/, built as a
#        package of its own in build/perfbench).
# Job 2: ASan+UBSan build + full test suite + smoke, so lifetime bugs in the
#        simulator event pool / serial callback plumbing cannot land silently.
#
# Job 3: perf ledger — Release build, every bench run with --json, and
#        tools/benchdiff against the checked-in bench/baselines/. A simulated
#        metric that moves by one count is a red diff; wall clocks get a
#        tolerance band.
#
# Job 4: TSan build of the parallel-DES executor surface — the sharded/
#        parallel tests, the city determinism gates, and a bench_city smoke —
#        so data races in the handoff outboxes and worker barriers fail CI
#        instead of corrupting a seeded run once in a thousand.
#
# Job 5: fuzz smoke — -DUPR_FUZZ=ON build (libFuzzer under clang, the
#        standalone mutating driver elsewhere, ASan+UBSan either way), seed
#        corpora extracted from the flight-recorder goldens, then every
#        fuzz_<target> run for a bounded time. A crash leaves its input in
#        build-fuzz/crash-* and fails the job.
#
# Job 6: live-bridge interop smoke — `uprsim --workload live` surfaces a
#        bridged port as a TCP KISS listener under wall-clock pacing, and the
#        unmodified external client tools/kiss_client completes a KISS-param +
#        LAPB connect/ping/disconnect round against it. The bridged port's
#        capture must match tests/golden/interop_live.pcapng in frame content
#        and order (timestamps are wall-dependent and not compared).
#
# Usage: tools/check.sh [--no-asan] [--asan-only] [--tsan] [--fuzz] [--quick]
#                       [--interop] [--ledger-only] [--no-ledger] [--rebaseline]
#   --no-asan      run only the regular job (plus the ledger job)
#   --asan-only    run only the sanitizer job (CI matrix uses this)
#   --tsan         run only the ThreadSanitizer job (CI matrix uses this)
#   --fuzz         run only the fuzz smoke (CI fuzz lane uses this; budget
#                  per target via UPR_FUZZ_TIME, default 60 seconds)
#   --interop      run only the live-bridge interop smoke (CI interop lane
#                  uses this)
#   --quick        regular build + ctest only, no sanitizers and no benches —
#                  fast enough for a pre-push hook (see README)
#   --ledger-only  run only the perf-ledger job (CI bench-ledger uses this)
#   --no-ledger    skip the perf-ledger job
#   --rebaseline   after the ledger job, copy the fresh documents over
#                  bench/baselines/ (use when a PR legitimately moves a
#                  simulated metric or scenario param; commit the result)
#
# Extra configure flags can be passed via UPR_CMAKE_FLAGS, e.g.
#   UPR_CMAKE_FLAGS="-DUPR_WERROR=ON" tools/check.sh
#
# POSIX sh, deliberately: CI and pre-push hooks may invoke this as
# `sh tools/check.sh`, where bashisms ([[, pipefail) either break or —
# worse — silently weaken the error handling. Every command that may fail
# is guarded explicitly, so a red smoke bench exits nonzero even when a
# non-bash /bin/sh ignores `set -o pipefail`.
set -eu
if (set -o pipefail) 2>/dev/null; then
  set -o pipefail
fi
cd "$(dirname "$0")/.."

jobs=$(nproc 2>/dev/null || echo 4)
run_regular=1
run_asan=1
run_tsan=0
run_fuzz=0
run_interop=0
run_bench=1
run_ledger=1
rebaseline=0

for arg in "$@"; do
  case "$arg" in
    --no-asan)
      run_asan=0
      ;;
    --asan-only)
      run_regular=0
      run_ledger=0
      ;;
    --tsan)
      run_regular=0
      run_asan=0
      run_ledger=0
      run_tsan=1
      ;;
    --fuzz)
      run_regular=0
      run_asan=0
      run_ledger=0
      run_fuzz=1
      ;;
    --interop)
      run_regular=0
      run_asan=0
      run_ledger=0
      run_interop=1
      ;;
    --quick)
      run_asan=0
      run_bench=0
      run_ledger=0
      ;;
    --ledger-only)
      run_regular=0
      run_asan=0
      ;;
    --no-ledger)
      run_ledger=0
      ;;
    --rebaseline)
      rebaseline=1
      ;;
    *)
      echo "unknown option: $arg" >&2
      echo "usage: tools/check.sh [--no-asan] [--asan-only] [--tsan] [--fuzz]" \
        "[--interop] [--quick] [--ledger-only] [--no-ledger] [--rebaseline]" >&2
      exit 2
      ;;
  esac
done

# Word-splitting of UPR_CMAKE_FLAGS is intentional: it carries whole flags.
extra_flags=${UPR_CMAKE_FLAGS:-}

run_smoke() {
  # `if ! cmd` keeps `set -e` from aborting before we can report, and makes
  # the failure propagate even from shells where a bare `cmd || ...` chain
  # inside `$(...)` or a pipeline would swallow the status.
  if ! "$1" --smoke; then
    echo "FAIL: $1 --smoke exited nonzero (bench regression gate)" >&2
    exit 1
  fi
}

# The repo benchmark (perfbench/) is a CMake package of its own that builds
# ../src in Release. Its ctest runs one smoke per workload: each must pass its
# output checks (every repetition reproduces the same counts, city-wide's
# parallel run equals its serial merge, vc-bulk verifies every byte) and emit
# exactly the metrics BENCHMARK.json names. ~6 s once built.
run_perfbench_smoke() {
  builddir=$1
  # shellcheck disable=SC2086
  cmake -S perfbench -B "$builddir/perfbench" $extra_flags >/dev/null
  cmake --build "$builddir/perfbench" -j"${jobs}"
  if ! ctest --test-dir "$builddir/perfbench" --output-on-failure; then
    echo "FAIL: perfbench self-tests (see above)" >&2
    exit 1
  fi
}

# Live-bridge interop smoke (job 6): a genuinely external process attaches to
# the bridge over TCP, speaks raw KISS, and works the resident station —
# KISS parameter commands, SABM/UA, one I-frame ICMP ping, RR ack, DISC/UA.
# uprsim must exit 0 (the station answered the echo and the client hung up),
# the client must exit 0 (every step of the round completed), and the bridged
# port's capture must match the pinned golden in frame content and order.
# Timestamps are wall-clock-dependent by design, so the timing tolerance is
# effectively unbounded — payload, ordering or count changes still fail.
# Everything lands in $builddir/interop-smoke/ for CI failure artifacts.
run_interop_smoke() {
  builddir=$1
  idir="$builddir/interop-smoke"
  rm -rf "$idir"
  mkdir -p "$idir"
  # Belt and braces against a hung realtime loop: the scenario bounds itself
  # (240 simulated seconds at --time-scale 20 is 12 wall seconds) and the
  # client bounds itself (--timeout 60); `timeout` is a backstop where
  # available.
  wrap=""
  if command -v timeout >/dev/null 2>&1; then
    wrap="timeout 120"
  fi
  # shellcheck disable=SC2086
  $wrap "$builddir/tools/uprsim" --workload live --realtime --time-scale 20 \
    --bridge-tcp ext0:0 --duration 240 --seed 7 --rate 1200 --netstat \
    --trace "$idir/interop.pcapng" >"$idir/uprsim.out" 2>&1 &
  sim_pid=$!
  port=""
  i=0
  while [ "$i" -lt 100 ]; do
    port=$(sed -n 's/.*listening on 127.0.0.1:\([0-9]*\).*/\1/p' \
      "$idir/uprsim.out")
    [ -n "$port" ] && break
    kill -0 "$sim_pid" 2>/dev/null || break
    sleep 0.1
    i=$((i + 1))
  done
  if [ -z "$port" ]; then
    cat "$idir/uprsim.out" >&2
    echo "FAIL: interop smoke: bridge never announced its TCP port" >&2
    kill "$sim_pid" 2>/dev/null || true
    exit 1
  fi
  client_status=0
  # shellcheck disable=SC2086
  $wrap "$builddir/tools/kiss_client" --tcp "$port" --timeout 60 --verbose \
    >"$idir/client.out" 2>&1 || client_status=$?
  sim_status=0
  wait "$sim_pid" || sim_status=$?
  if [ "$client_status" -ne 0 ] || [ "$sim_status" -ne 0 ]; then
    cat "$idir/client.out" >&2
    cat "$idir/uprsim.out" >&2
    echo "FAIL: interop smoke: kiss_client exited $client_status," \
      "uprsim exited $sim_status" >&2
    exit 1
  fi
  if ! "$builddir/tools/tracediff" --time-tol 600000 \
      tests/golden/interop_live.pcapng "$idir/interop.pcapng" \
      >"$idir/interop.tracediff.txt" 2>&1; then
    cat "$idir/interop.tracediff.txt" >&2
    echo "FAIL: interop smoke: bridged-port capture differs from" \
      "tests/golden/interop_live.pcapng in frame content/order (see above)" >&2
    exit 1
  fi
  echo "interop smoke: external KISS client round complete, capture matches golden"
}

if [ "$run_regular" = 1 ]; then
  echo "=== tier-1: regular build + ctest ==="
  # shellcheck disable=SC2086
  cmake -B build -S . $extra_flags >/dev/null
  cmake --build build -j"${jobs}"
  ctest --test-dir build --output-on-failure -j"${jobs}"

  if [ "$run_bench" = 1 ]; then
    echo "=== tier-1: copy-path smoke (zero-copy ratios) ==="
    run_smoke ./build/bench/bench_e8_copy_path
  fi

  if [ "$run_bench" = 1 ]; then
    echo "=== tier-1: tracediff throughput smoke ==="
    run_smoke ./build/bench/bench_tracediff
  fi

  if [ "$run_bench" = 1 ]; then
    echo "=== tier-1: live bridge interop smoke ==="
    run_interop_smoke ./build
  fi

  if [ "$run_bench" = 1 ]; then
    echo "=== tier-1: repo benchmark self-tests (perfbench smokes) ==="
    run_perfbench_smoke ./build
  fi
fi

if [ "$run_asan" = 1 ]; then
  echo "=== tier-1: ASan+UBSan build + ctest ==="
  # shellcheck disable=SC2086
  cmake -B build-asan -S . -DUPR_SANITIZE=ON -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    $extra_flags >/dev/null
  cmake --build build-asan -j"${jobs}"
  ctest --test-dir build-asan --output-on-failure -j"${jobs}"

  if [ "$run_bench" = 1 ]; then
    echo "=== tier-1: copy-path smoke under ASan ==="
    run_smoke ./build-asan/bench/bench_e8_copy_path
  fi

  if [ "$run_bench" = 1 ]; then
    echo "=== tier-1: tracediff throughput smoke under ASan ==="
    run_smoke ./build-asan/bench/bench_tracediff
  fi
fi

if [ "$run_tsan" = 1 ]; then
  echo "=== tier-1: TSan build + parallel-DES tests ==="
  # Reports land in build-tsan/tsan-report.<pid> so CI can upload them as
  # failure artifacts; halt_on_error turns the first race into a nonzero
  # exit instead of a warning that scrolls past.
  TSAN_OPTIONS="halt_on_error=1 log_path=$(pwd)/build-tsan/tsan-report ${TSAN_OPTIONS:-}"
  export TSAN_OPTIONS
  # shellcheck disable=SC2086
  cmake -B build-tsan -S . -DUPR_SANITIZE=thread \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo $extra_flags >/dev/null
  # Only the threaded surface: the serial stack is already covered by the
  # regular and ASan jobs, and a full TSan build would double CI time for
  # code that never spawns a thread.
  cmake --build build-tsan -j"${jobs}" \
    --target shard_test topo_test uprsim tracediff bench_city
  ctest --test-dir build-tsan --output-on-failure -j"${jobs}" \
    -R 'shard_test|topo_test|uprsim_topo_rejects_bad_args|uprsim_city'

  echo "=== tier-1: bench_city smoke under TSan (parallel sweep) ==="
  run_smoke ./build-tsan/bench/bench_city
fi

if [ "$run_fuzz" = 1 ]; then
  echo "=== fuzz smoke: build harnesses (ASan+UBSan) ==="
  # Under clang UPR_FUZZ already turns on ASan+UBSan and libFuzzer coverage;
  # UPR_SANITIZE=ON makes the gcc/standalone path equally sanitized.
  # shellcheck disable=SC2086
  cmake -B build-fuzz -S . -DUPR_FUZZ=ON -DUPR_SANITIZE=ON \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo $extra_flags >/dev/null
  # The target list is fuzz/targets/registry.cc's; configure writes it out.
  fuzz_targets=$(cat build-fuzz/fuzz/fuzz-all.txt)
  cmake --build build-fuzz -j"${jobs}" --target fuzz_corpus fuzz_all

  fuzz_time=${UPR_FUZZ_TIME:-60}
  for t in $fuzz_targets; do
    echo "=== fuzz smoke: $t (${fuzz_time}s) ==="
    # First dir is writable (libFuzzer stores new coverage there); the
    # checked-in regression corpus rides along read-only.
    mkdir -p "build-fuzz/corpus/$t"
    seed_dirs="build-fuzz/corpus/$t"
    if [ -d "tests/fuzz/corpus/$t" ]; then
      seed_dirs="$seed_dirs tests/fuzz/corpus/$t"
    fi
    # shellcheck disable=SC2086
    if ! "./build-fuzz/fuzz/fuzz_$t" -max_total_time="$fuzz_time" -seed=1 \
        -artifact_prefix=build-fuzz/ $seed_dirs; then
      echo "FAIL: fuzz target $t crashed — reproducer in build-fuzz/crash-*" \
        "(minimize it and commit it under tests/fuzz/corpus/$t/)" >&2
      exit 1
    fi
  done
  echo "fuzz smoke: all targets clean"
fi

if [ "$run_interop" = 1 ]; then
  echo "=== tier-1: live bridge interop smoke (standalone) ==="
  # shellcheck disable=SC2086
  cmake -B build -S . $extra_flags >/dev/null
  cmake --build build -j"${jobs}" --target uprsim kiss_client tracediff
  run_interop_smoke ./build
fi

if [ "$run_ledger" = 1 ]; then
  echo "=== tier-1: perf ledger (Release benches vs bench/baselines) ==="
  # shellcheck disable=SC2086
  cmake -B build-release -S . -DCMAKE_BUILD_TYPE=Release $extra_flags >/dev/null
  cmake --build build-release -j"${jobs}"
  rm -rf build-release/ledger
  if ! tools/bench_ledger.sh ./build-release build-release/ledger; then
    echo "FAIL: a bench exited nonzero while generating the ledger" >&2
    exit 1
  fi
  if [ "$rebaseline" = 1 ]; then
    mkdir -p bench/baselines
    cp build-release/ledger/BENCH_*.json bench/baselines/
    echo "perf ledger: baselines regenerated in bench/baselines/ (commit them)"
  else
    # The report is written to a file (and echoed) so CI can upload it as an
    # artifact next to the BENCH_*.json documents.
    diff_status=0
    ./build-release/tools/benchdiff \
      --wall-tol "${UPR_WALL_TOL:-0.5}" \
      --dir bench/baselines build-release/ledger \
      >build-release/ledger/benchdiff.report.txt 2>&1 || diff_status=$?
    cat build-release/ledger/benchdiff.report.txt
    if [ "$diff_status" -ne 0 ]; then
      echo "FAIL: perf ledger regressed vs bench/baselines/ (if the change is" \
        "intended, rerun with --rebaseline and commit the new baselines)" >&2
      exit 1
    fi
  fi
fi

echo "tier-1: all requested jobs passed"
