#!/usr/bin/env bash
# Canonical CI entry point, ten stages (each timed; the wall-clock table
# at the end makes slow stages visible in logs):
#
#  1. release-build: Release configure + build. Built -O3 explicitly (not the
#     cmake default RelWithDebInfo fallback) because stage 3's perf gates
#     measure this tree; gating an unoptimized build would enforce the claim
#     on a configuration nobody ships.
#  2. ctest: the full suite. Tests carry LABELS (unit / engine / concurrency
#     / store / chase / net) and per-test TIMEOUT properties, so a hang is a
#     named per-test failure, not a stuck job.
#  3. perfbench-smoke: the end-to-end benchmark (perfbench/) as a verdict
#     check. Runs its harness selftest, then each of the four workloads for
#     2 s untraced; run.py exits non-zero when any verdict its oracles refute
#     (or any request fails), so this is the stage that checks verdicts
#     served from every tier — LRU, local store, remote over TCP — and the
#     survivors of EvolveSigma. No timing is gated here. Placed before
#     perf-gates so a red perf gate cannot hide it.
#  4. perf-gates: enforced perf smokes. bench_chase_bulk exits non-zero if
#     the set-at-a-time chase core diverges from the scalar oracle (prefix,
#     steps, or terminal status) or misses the >= 2x speedup bound on the
#     wide-Σ workload; bench_reliance if any acyclic FD+IND task fails to
#     decide with allow_semidecision=false (the reliance analyzer's
#     kAcyclicInd fragment must stay a real decision procedure, not a
#     semi-decision in disguise); bench_schema_evolution unless a 1-IND edit
#     on a warm wide-Σ store invalidates O(touched) verdicts and every
#     survivor matches a fresh-engine oracle.
#  5. warmstart-gate: the persistent-tier restart contract. Runs
#     bench_store_warmstart twice against the same fresh store directory; the
#     cold run populates the store and checks verdict parity against a
#     store-less engine, the warm run additionally exits non-zero unless it
#     answered the whole repeated workload with zero chases built. The warm
#     run then pins itself to one CPU, reopens the store as the only tier
#     and times store hits in 12 interleaved blocks through Submit -> Get
#     and through the inline Check: it exits non-zero when the Submit -> Get
#     p50 exceeds 1.2x the Check p50, i.e. when a local-tier hit pays the
#     executor hand-off again (both p50s are in its JSON record). Then
#     `verdict_storectl verify` must find the store's files clean (current
#     format version, fingerprint, checksums, every entry decodable).
#  6. tier-gate: the distributed-tier contract in-process. bench_tier_stack
#     runs engine A cold (publishing over the loopback RemoteTier to a shared
#     verdict authority) and then engine B with cold local caches, which must
#     answer the whole workload over the remote tier: exit non-zero unless
#     chases_built == 0, remote_hits > 0, and verdicts match the oracle.
#  7. tcp-gate: the distributed-tier contract over real sockets. Starts the
#     standalone verdict_authorityd (store-backed, ephemeral port scraped
#     from its "listening HOST:PORT" line) and runs bench_remote_tcp against
#     it: engine A publishes over TCP, engine B with cold caches must answer
#     the whole workload over the wire — exit non-zero unless chases_built
#     == 0, remote_hits > 0, verdicts match a tier-less oracle, AND the
#     64-task burst took strictly fewer round trips than tasks (the batched
#     kTierOpFetchMany opcode, not 64 per-key fetches). Then SIGTERMs the
#     daemon (graceful drain must exit 0 with a shutdown summary) and
#     restarts it on the same store to prove the published verdicts
#     survived. The daemon is always torn down via trap, pass or fail.
#  8. asan-ubsan: AddressSanitizer + UndefinedBehaviorSanitizer over the
#     store/serialize/engine/tier/net binaries. The store and the tier wire
#     protocol parse attacker-shaped bytes (and their tests feed them
#     corrupted input), so the parsing code runs under ASan+UBSan from day
#     one; -fno-sanitize-recover turns any UB into a non-zero exit.
#  9. tsan: ThreadSanitizer over the concurrency-bearing binaries (sharded
#     symbol arena, concurrent chases returning their NDV blocks, cancel and
#     deadline trips, the work-stealing executor, SubmitAll bursts, write-behind store/tier
#     flush, thread-per-connection authority server): any data race fails
#     CI.
# 10. static-analysis: clang-tidy (profile in .clang-tidy: bugprone-*,
#     performance-*, concurrency-*, plus two zero-cost style checks) over
#     every translation unit in compile_commands.json, warnings-as-errors.
#     Hosts without clang-tidy fall back to a strict-warning syntax-only
#     sweep (g++ -fsyntax-only -Wall -Wextra -Werror) over the same
#     compilation database, so the stage never silently no-ops: either the
#     full profile runs or the warning floor does.
set -euo pipefail
cd "$(dirname "$0")"

JOBS="${JOBS:-$(nproc)}"

# Peak-RSS per stage: /usr/bin/time is not guaranteed on the CI hosts, so a
# tiny wait4-based wrapper (tools/rsswrap.c) measures each stage's subtree.
# Stages run through `$0 --run-stage <fn>` so the wrapper has a real process
# to exec (bash functions aren't execvp-able); if the wrapper fails to
# compile the stage runs unwrapped and the table prints n/a.
RSSWRAP="build/rsswrap"
mkdir -p build
cc -O2 -o "${RSSWRAP}" tools/rsswrap.c 2>/dev/null || true

STAGE_NAMES=()
STAGE_SECS=()
STAGE_RSS_KB=()
stage() {
  local name="$1"
  shift
  echo ""
  echo "=== stage: ${name} ==="
  local t0=${SECONDS}
  local rss="n/a"
  if [[ -x "${RSSWRAP}" ]]; then
    local rss_file="build/.rsswrap.${name}.kb"
    rm -f "${rss_file}"
    "${RSSWRAP}" "${rss_file}" "$0" --run-stage "$@"
    rss="$(tail -n 1 "${rss_file}" 2>/dev/null || echo n/a)"
    rm -f "${rss_file}"
  else
    "$@"
  fi
  local dt=$(( SECONDS - t0 ))
  STAGE_NAMES+=("${name}")
  STAGE_SECS+=("${dt}")
  STAGE_RSS_KB+=("${rss}")
  echo "=== stage: ${name} ok (${dt}s) ==="
}

release_build() {
  # Compile commands exported for static-analysis: that stage must see the
  # exact flags the shipped configuration compiles with.
  cmake -B build -S . -DCMAKE_BUILD_TYPE=Release \
    -DCMAKE_EXPORT_COMPILE_COMMANDS=ON
  cmake --build build -j "${JOBS}"
}

run_ctest() {
  (cd build && ctest --output-on-failure -j "${JOBS}")
}

perfbench_smoke() {
  python3 perfbench/run.py --selftest
  local workload
  for workload in warm_wide cold_mixed fleet_rw schema_evolve; do
    python3 perfbench/run.py --workload "${workload}" --seconds 2 --trace 0
  done
}

perf_gates() {
  ./build/bench_chase_bulk
  ./build/bench_reliance
  # Σ-lineage survival: a 1-IND edit on a warm wide-Σ store must invalidate
  # O(touched) verdicts and every survivor must match a fresh-engine oracle.
  rm -rf build/schema-evolution-store
  ./build/bench_schema_evolution build/schema-evolution-store
}

warmstart_gate() {
  local dir="build/warmstart-store"
  rm -rf "${dir}"
  ./build/bench_store_warmstart "${dir}"          # cold: populate + parity
  ./build/bench_store_warmstart "${dir}" --warm   # warm: zero chases + hit p50
  ./build/verdict_storectl verify --dir "${dir}"  # files clean or fail
}

tier_gate() {
  ./build/bench_tier_stack   # engine B over loopback: zero chases or fail
}

tcp_gate() {
  local store="build/tcp-gate-store"
  local log="build/tcp-gate-daemon.log"
  local daemon_pid=""
  rm -rf "${store}"
  # Pass or fail, the daemon never outlives the stage.
  trap '[[ -n "${daemon_pid}" ]] && kill "${daemon_pid}" 2>/dev/null;
        [[ -n "${daemon_pid}" ]] && wait "${daemon_pid}" 2>/dev/null;
        true' RETURN

  ./build/verdict_authorityd --listen 127.0.0.1:0 \
    --store-path "${store}" > "${log}" &
  daemon_pid=$!
  local addr=""
  for _ in $(seq 1 100); do
    addr="$(sed -n 's/^listening //p' "${log}" | head -n 1)"
    [[ -n "${addr}" ]] && break
    sleep 0.1
  done
  if [[ -z "${addr}" ]]; then
    echo "FATAL: verdict_authorityd never reported its address" >&2
    cat "${log}" >&2
    return 1
  fi
  echo "daemon up at ${addr} (pid ${daemon_pid})"

  # One endpoint per --listen: a comma list is a usage error (exit 2).
  local rc=0
  ./build/verdict_authorityd --listen 127.0.0.1:1,127.0.0.1:0 \
    2> "${log}.badlisten" || rc=$?
  if [[ "${rc}" != 2 ]] || ! grep -q 'bad --listen' "${log}.badlisten"; then
    echo "FATAL: --listen with a comma list exited ${rc}" >&2
    cat "${log}.badlisten" >&2
    return 1
  fi

  # The enforced gate: cold engine over real TCP, zero chases, batched RTTs.
  ./build/bench_remote_tcp --connect "${addr}"

  # Graceful shutdown: SIGTERM must drain, print the summary, and exit 0.
  kill -TERM "${daemon_pid}"
  wait "${daemon_pid}"
  daemon_pid=""
  grep -q '^shutdown:' "${log}" || {
    echo "FATAL: daemon exited without its shutdown summary" >&2
    cat "${log}" >&2
    return 1
  }

  # Restart on the same store: engine A's published verdicts must survive.
  ./build/verdict_authorityd --listen 127.0.0.1:0 \
    --store-path "${store}" > "${log}.restart" &
  daemon_pid=$!
  local seeded=""
  for _ in $(seq 1 100); do
    seeded="$(grep -Eo 'seeded [0-9]+ entries' "${log}.restart" || true)"
    [[ -n "${seeded}" ]] && break
    sleep 0.1
  done
  kill -TERM "${daemon_pid}"
  wait "${daemon_pid}"
  daemon_pid=""
  if ! [[ "${seeded}" =~ seeded\ [1-9][0-9]*\ entries ]]; then
    echo "FATAL: restarted daemon seeded nothing (got: '${seeded}')" >&2
    cat "${log}.restart" >&2
    return 1
  fi
  echo "restart ${seeded} from the store"
}

# Per-config-flags pattern shared by both sanitizer stages: Debug, not
# RelWithDebInfo, because per-config flags append *after* CMAKE_CXX_FLAGS and
# RelWithDebInfo's "-O2 -DNDEBUG" would override -O1 and compile out the
# asserts guarding the arena — the exact checks these stages exist to keep
# hot. SymbolTable::Name() returns a temporary (chase-NDV names are rendered
# on demand), so the suites that print names (pspace, chase, parser) run
# under ASan to catch any string_view or pointer kept past it. The
# homomorphism solver searches through references into a FactIndex it does
# not own (the chase loop keeps one per decision), so the suites that drive
# it directly and through the engine's loop run here too; sweep_test builds
# certificates through that loop as well. canonical_key_test drives the
# key labeller, whose per-thread scratch arrays outlive each query and only
# grow.
ASAN_TESTS=(serialize_test store_test tier_test net_test engine_test
            engine_cache_test engine_dispatch_test chase_core_parity_test
            reliance_test executor_test lineage_test delta_migration_test
            string_util_test symbol_table_test pspace_test chase_test
            cq_parser_test certificate_test containment_test
            engine_concurrency_test engine_submit_test homomorphism_test
            engine_witness_search_test sweep_test canonical_key_test)
asan_ubsan() {
  cmake -B build-asan -S . -DCMAKE_BUILD_TYPE=Debug \
    -DCMAKE_CXX_FLAGS="-fsanitize=address,undefined -fno-sanitize-recover=all -O1 -g" \
    -DCMAKE_EXE_LINKER_FLAGS="-fsanitize=address,undefined"
  cmake --build build-asan -j "${JOBS}" --target "${ASAN_TESTS[@]}"
  for t in "${ASAN_TESTS[@]}"; do
    echo "=== asan+ubsan: ${t} ==="
    ./build-asan/"${t}"
  done
}

# BuildCertificate decides on an executor worker and hands the certificate
# back through EngineFuture::Get, so the suites that build certificates run
# here too.
TSAN_TESTS=(symbol_table_test chase_test chase_core_parity_test reliance_test
            engine_test engine_cache_test engine_dispatch_test
            engine_concurrency_test executor_test engine_submit_test
            store_test tier_test net_test lineage_test delta_migration_test
            certificate_test pspace_test)
tsan() {
  cmake -B build-tsan -S . -DCMAKE_BUILD_TYPE=Debug \
    -DCMAKE_CXX_FLAGS="-fsanitize=thread -O1 -g" \
    -DCMAKE_EXE_LINKER_FLAGS="-fsanitize=thread"
  cmake --build build-tsan -j "${JOBS}" --target "${TSAN_TESTS[@]}"
  for t in "${TSAN_TESTS[@]}"; do
    echo "=== tsan: ${t} ==="
    ./build-tsan/"${t}"
  done
  # Regression guard for the closed-connection reaping race (a handler
  # observed closed before its row was reapable).
  echo "=== tsan: net_test ClosedConnectionRowsAreBounded x30 ==="
  ./build-tsan/net_test \
    --gtest_filter=ServerTest.ClosedConnectionRowsAreBounded --gtest_repeat=30
}

# clang-tidy over the exact flags of the shipped build (stage 1 exports
# compile_commands.json for this). On hosts without clang-tidy the stage
# degrades to a strict-warning syntax-only sweep with the same compilation
# database: weaker than the .clang-tidy profile, but it keeps a warning
# floor (-Wall -Wextra -Werror) enforced everywhere the stage runs, and the
# log says loudly which mode ran. The sed extraction relies on CMake's
# stable one-key-per-line JSON layout — jq is not guaranteed on CI hosts.
static_analysis() {
  local db="build/compile_commands.json"
  if [[ ! -f "${db}" ]]; then
    echo "FATAL: ${db} missing (release-build must run first)" >&2
    return 1
  fi
  if command -v clang-tidy >/dev/null 2>&1; then
    echo "mode: clang-tidy ($(clang-tidy --version | head -n 1))"
    local files
    mapfile -t files < <(sed -n 's/^ *"file": "\(.*\)",*$/\1/p' "${db}")
    clang-tidy -p build --quiet "${files[@]}"
  else
    echo "mode: fallback strict-warning sweep (clang-tidy not on this host)"
    local cmd n=0
    while IFS= read -r cmd; do
      # shellcheck disable=SC2086  # the recorded command is word-splittable
      ${cmd} -fsyntax-only -Wall -Wextra -Werror
      n=$(( n + 1 ))
    done < <(sed -n 's/^ *"command": "\(.*\)",*$/\1/p' "${db}")
    echo "swept ${n} translation units clean"
  fi
}

# Re-entrant stage dispatch for the rsswrap wrapper (see above). Must sit
# after every stage function is defined and before any stage runs.
if [[ "${1:-}" == "--run-stage" ]]; then
  shift
  "$@"
  exit $?
fi

stage release-build   release_build
stage ctest           run_ctest
stage perfbench-smoke perfbench_smoke
stage perf-gates      perf_gates
stage warmstart-gate  warmstart_gate
stage tier-gate       tier_gate
stage tcp-gate        tcp_gate
stage asan-ubsan      asan_ubsan
stage tsan            tsan
stage static-analysis static_analysis

echo ""
echo "=== stage timings ==="
for i in "${!STAGE_NAMES[@]}"; do
  rss="${STAGE_RSS_KB[$i]}"
  if [[ "${rss}" =~ ^[0-9]+$ ]]; then
    printf '  %-16s %4ss  peak-rss %5d MB\n' \
      "${STAGE_NAMES[$i]}" "${STAGE_SECS[$i]}" $(( rss / 1024 ))
  else
    printf '  %-16s %4ss  peak-rss    n/a\n' \
      "${STAGE_NAMES[$i]}" "${STAGE_SECS[$i]}"
  fi
done
echo "CI OK"
