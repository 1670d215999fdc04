#!/usr/bin/env bash
# CI entry point. Nine stages, selectable by argument:
#
#   scripts/ci.sh test            # default Release build, full ctest
#   scripts/ci.sh answers         # perfbench inproc_estimator, seed 11: answers
#                                 # pinned bit for bit (mre, eps_violation_rate)
#   scripts/ci.sh sanitize        # ASan+UBSan, observability|net|index-labeled tests
#   scripts/ci.sh sanitize-thread # TSan, net-labeled tests (reactor/TCP/coalescer)
#   scripts/ci.sh bench-smoke     # bench harnesses at smoke scale + BENCH_*.json
#   scripts/ci.sh alloc-smoke     # warm-path allocation budget (buffer pool)
#   scripts/ci.sh profiler-smoke  # bench_throughput under SIGPROF sampling:
#                                 # usable stacks, qps tax under 5%
#   scripts/ci.sh metrics-lint    # boot an AdminServer, scrape + lint /metrics
#   scripts/ci.sh docs-check      # docs link + metric-drift check (no build)
#   scripts/ci.sh                 # all nine stages in sequence
#
# Each stage uses its own build tree under build-ci/ so stages cannot
# poison one another's CMake cache.

set -euo pipefail

REPO_ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
JOBS="$(nproc 2>/dev/null || sysctl -n hw.ncpu 2>/dev/null || echo 4)"

run_stage() {
  local stage="$1"

  # docs-check is pure text analysis — no configure/build/test cycle.
  if [[ "${stage}" == "docs-check" ]]; then
    echo "=== stage ${stage}: docs link + drift check ==="
    "${REPO_ROOT}/scripts/check_docs.sh" "${REPO_ROOT}"
    echo "=== stage ${stage}: OK ==="
    return
  fi

  # answers runs the repository benchmark's in-process estimator workload
  # (perfbench/run.py builds it from this tree) on a fixed seed and pins
  # its accuracy figures bit for bit, so a change that moves any answer
  # fails here. A change that moves answers on purpose updates the pins
  # and says so in CHANGES.md.
  if [[ "${stage}" == "answers" ]]; then
    echo "=== stage ${stage}: build + run inproc_estimator, seed 11 ==="
    local result
    result="$(cd "${REPO_ROOT}" &&
              CARGO_TARGET_DIR="${REPO_ROOT}/build-ci/${stage}" \
                python3 perfbench/run.py --workload inproc_estimator \
                  --seed 11 --batches 60 --seconds 5 --trace 0 | tail -n 1)"
    python3 - "${result}" <<'PYEOF'
import json
import sys
PINS = {'mre': '0.051809129771789315',
        'eps_violation_rate': '0.13027496995829504'}
result = json.loads(sys.argv[1])
failed = result.get('correct') is not True
if failed:
    print('FAIL: the run reports correct != true', file=sys.stderr)
for name, pinned in PINS.items():
    got = repr(result['metrics'][name]['value'])
    print(f'    {name} = {got} (pinned {pinned})')
    if got != pinned:
        print(f'FAIL: {name} moved from the pinned {pinned} to {got}',
              file=sys.stderr)
        failed = True
sys.exit(1 if failed else 0)
PYEOF
    echo "=== stage ${stage}: OK ==="
    return
  fi

  # metrics-lint builds one binary and exercises the live admin surface
  # over HTTP — no ctest cycle.
  if [[ "${stage}" == "metrics-lint" ]]; then
    local build_dir="${REPO_ROOT}/build-ci/${stage}"
    echo "=== stage ${stage}: configure ==="
    cmake -S "${REPO_ROOT}" -B "${build_dir}" -DCMAKE_BUILD_TYPE=Release
    echo "=== stage ${stage}: build ==="
    cmake --build "${build_dir}" -j "${JOBS}" --target admin_scrape_target
    echo "=== stage ${stage}: scrape + lint ==="
    "${REPO_ROOT}/scripts/check_metrics_exposition.sh" \
      "${build_dir}/examples/admin_scrape_target"
    echo "=== stage ${stage}: OK ==="
    return
  fi

  # alloc-smoke builds the micro-net bench and runs only its allocation
  # section: the warm pooled path must stay under the pinned
  # FRA_ALLOC_BUDGET (allocator calls per query) and the pool-on/off
  # EXACT answers must be bit-identical. Catches anyone reintroducing a
  # per-frame copy or malloc on the zero-copy data plane.
  if [[ "${stage}" == "alloc-smoke" ]]; then
    local build_dir="${REPO_ROOT}/build-ci/${stage}"
    echo "=== stage ${stage}: configure ==="
    cmake -S "${REPO_ROOT}" -B "${build_dir}" -DCMAKE_BUILD_TYPE=Release
    echo "=== stage ${stage}: build ==="
    cmake --build "${build_dir}" -j "${JOBS}" --target bench_micro_net
    echo "=== stage ${stage}: allocation budget ==="
    (cd "${build_dir}" &&
     FRA_ALLOC_BUDGET=0.5 \
       ./bench/bench_micro_net --benchmark_filter='^$')
    echo "=== stage ${stage}: OK ==="
    return
  fi

  # profiler-smoke runs the throughput bench twice — profiler off, then
  # sampling at the default 19 Hz — interleaved best-of-two per config so
  # a noisy CI neighbour doesn't decide the comparison. The profiled run
  # must produce non-empty collapsed stacks and cost < 5% qps.
  if [[ "${stage}" == "profiler-smoke" ]]; then
    local build_dir="${REPO_ROOT}/build-ci/${stage}"
    echo "=== stage ${stage}: configure ==="
    cmake -S "${REPO_ROOT}" -B "${build_dir}" -DCMAKE_BUILD_TYPE=Release
    echo "=== stage ${stage}: build ==="
    cmake --build "${build_dir}" -j "${JOBS}" --target bench_throughput
    echo "=== stage ${stage}: off/on qps comparison ==="
    local qps_off=0 qps_on=0 samples=0
    local pass qps
    for pass in 1 2; do
      (cd "${build_dir}" && FRA_BENCH_SCALE=smoke FRA_PROFILE_HZ=0 \
         ./bench/bench_throughput > "bench_throughput_off_${pass}.log")
      qps="$(python3 -c "
import json
data = json.load(open('${build_dir}/BENCH_throughput.json'))
print(max(row['qps'] for row in data['in_process']))")"
      qps_off="$(python3 -c "print(max(${qps_off}, ${qps}))")"
      (cd "${build_dir}" && FRA_BENCH_SCALE=smoke FRA_PROFILE_HZ=19 \
         ./bench/bench_throughput > "bench_throughput_on_${pass}.log")
      qps="$(python3 -c "
import json
data = json.load(open('${build_dir}/BENCH_throughput.json'))
print(max(row['qps'] for row in data['in_process']))")"
      qps_on="$(python3 -c "print(max(${qps_on}, ${qps}))")"
      samples="$(sed -n 's/^PROFILER_SAMPLES=//p' \
                   "${build_dir}/bench_throughput_on_${pass}.log" | head -1)"
    done
    echo "    qps off=${qps_off} on=${qps_on} samples=${samples}"
    if [[ ! -s "${build_dir}/PROFILE_bench_throughput.folded" ]]; then
      echo "profiled run wrote no collapsed stacks" >&2
      exit 1
    fi
    if ! grep -q ';' "${build_dir}/PROFILE_bench_throughput.folded"; then
      echo "collapsed output has no multi-frame stacks" >&2
      exit 1
    fi
    if [[ -z "${samples}" || "${samples}" -lt 1 ]]; then
      echo "profiled run captured no samples" >&2
      exit 1
    fi
    python3 - "${qps_off}" "${qps_on}" <<'PYEOF'
import sys
off, on = float(sys.argv[1]), float(sys.argv[2])
delta = (off - on) / off * 100.0 if off > 0 else 0.0
print(f'    profiler qps tax: {delta:+.2f}%')
if delta >= 5.0:
    print(f'FAIL: profiler costs {delta:.2f}% qps (bar: < 5%)',
          file=sys.stderr)
    sys.exit(1)
PYEOF
    echo "=== stage ${stage}: OK ==="
    return
  fi

  local build_dir="${REPO_ROOT}/build-ci/${stage}"
  local -a cmake_args=(-DCMAKE_BUILD_TYPE=Release)
  local -a ctest_args=(--output-on-failure -j "${JOBS}")

  case "${stage}" in
    test)
      ;;
    sanitize)
      cmake_args+=(
        -DCMAKE_BUILD_TYPE=RelWithDebInfo
        "-DCMAKE_CXX_FLAGS=-fsanitize=address,undefined -fno-sanitize-recover=all -fno-omit-frame-pointer"
        "-DCMAKE_EXE_LINKER_FLAGS=-fsanitize=address,undefined"
      )
      # The sanitized stage concentrates on the concurrency-heavy
      # surfaces (registry races, admin server, health tracker, the
      # reactor and TCP transport) and on the index descents (grid,
      # R-tree, LSR-Forest, silo per-cell answers, ingest delta), where
      # an out-of-bounds slot or node index would live; the plain stages
      # run everything. -L is a regex: this selects all three families.
      ctest_args+=(-L 'observability|net|index')
      ;;
    sanitize-thread)
      cmake_args+=(
        -DCMAKE_BUILD_TYPE=RelWithDebInfo
        "-DCMAKE_CXX_FLAGS=-fsanitize=thread -fno-omit-frame-pointer"
        "-DCMAKE_EXE_LINKER_FLAGS=-fsanitize=thread"
      )
      # TSan over the event-loop surface: reactor internals, the TCP
      # transport's client/server state machines, and the coalescer's
      # reactor-timer flush path. These are the tests where a
      # cross-thread ordering bug would actually live.
      ctest_args+=(-L net)
      ;;
    bench-smoke)
      # Bench harnesses at FRA_BENCH_SCALE=smoke (the label sets the env
      # var): guards the coalescing throughput path end to end and that
      # the machine-readable BENCH_*.json artifacts keep being written.
      ctest_args+=(-L bench_smoke)
      ;;
    *)
      echo "unknown stage: ${stage}" >&2
      echo "usage: $0 [test|answers|sanitize|sanitize-thread|bench-smoke|alloc-smoke|profiler-smoke|metrics-lint|docs-check]" >&2
      exit 2
      ;;
  esac

  echo "=== stage ${stage}: configure ==="
  cmake -S "${REPO_ROOT}" -B "${build_dir}" "${cmake_args[@]}"
  echo "=== stage ${stage}: build ==="
  cmake --build "${build_dir}" -j "${JOBS}"
  echo "=== stage ${stage}: test ==="
  (cd "${build_dir}" && ctest "${ctest_args[@]}")
  if [[ "${stage}" == "bench-smoke" ]]; then
    echo "=== stage ${stage}: bench artifacts ==="
    local -a artifacts
    mapfile -t artifacts < <(find "${build_dir}" -maxdepth 2 -name 'BENCH_*.json')
    if [[ ${#artifacts[@]} -eq 0 ]]; then
      echo "no BENCH_*.json artifacts written" >&2
      exit 1
    fi
    ls -l "${artifacts[@]}"
  fi
  echo "=== stage ${stage}: OK ==="
}

if [[ $# -eq 0 ]]; then
  for stage in docs-check test answers sanitize sanitize-thread bench-smoke alloc-smoke profiler-smoke metrics-lint; do
    run_stage "${stage}"
  done
else
  for stage in "$@"; do
    run_stage "${stage}"
  done
fi
