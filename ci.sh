#!/usr/bin/env bash
# The local gate, structured as named tiers. Offline by construction:
# every dependency is a workspace path dependency (see README.md "Zero
# external dependencies").
#
# Usage:
#   ./ci.sh                     # the full gate: every tier, in order
#   ./ci.sh <tier> [<tier>...]  # only the named tiers
#   ./ci.sh --quick             # fail-fast subset: build + test-quick
#   ./ci.sh --list              # show the tiers
#
# Tiers:
#   build        release build of the workspace + examples
#   test         the whole test suite
#   test-quick   the whole suite with property tests (including the
#                differential suites that run the VM against the
#                interpreter and the search index against the linear
#                scan, both from the dev-only laminar-oracle crate) at a
#                reduced case count (PROPTEST_CASES=8)
#   stress       the concurrency stress suite (unrestricted test threads)
#                and the registry search-index differential proptests
#   edge         the HTTP edge: http.rs unit tests (cap, deadlines, idle
#                close), the public-surface edge tests (among them: every
#                event page on the wire is byte for byte the in-process
#                body; a run whose script asks for a huge allocation is
#                refused and the next run served), the client's
#                kept-connection reconnect rule against a fake server, a
#                fake server's lying Content-Length failing the call
#                instead of the client, and a run asking for more than
#                256 processes refused with a 400 on both transports
#   streaming    streaming + cancellation scenario tiers, the event log's
#                wake protocol (1,000 rounds each of parked readers and a
#                throttled producer with no lost wake-up, and one notify
#                per park, not per event), the allocator calls one
#                delivered event costs end to end, the allocator calls
#                one reading of the group-by workload costs enacted, and
#                the live bytes a retained event holds and an expired log
#                gives back, and the live heap behind a slow sink on the
#                bounded inboxes Multi, MPI and Redis share
#   chaos        durability fault-injection suite at full proptest depth:
#                crash/resume chaos, cross-backend epoch parity, torn
#                journal segments, the mid-stream worker-failure
#                regression, randomized slow/dead-consumer
#                backpressure (PROPTEST_CASES env raises the depth) and a
#                throttled producer losing nothing for a live slow
#                consumer, the VM's read paths and lent builtin arguments
#                against the interpreter oracle at 512 cases, a
#                panicking instance failing its run on Multi, MPI and
#                Redis within a bound, the pool's end-of-job faults (a
#                panicking PE on every mapping, a resumed job's
#                retention, every terminal path settling once), and the
#                registry's write path: the literal on-disk WAL and
#                snapshot, interleaved writers against WAL replay, a
#                write the journal refuses leaving no trace, the
#                auto-snapshot after 256 ops of ordinary writes, and
#                corrupt WAL ops and snapshots refused on open
#   bench-smoke  four --smoke bench runs writing target/bench/<bin>.json,
#                and the bench_check guard over them (committed
#                baselines: BENCH_PR2.json, BENCH_PR10.json), then the
#                table6 and table7 bins, each failing when the paper's
#                shape is VIOLATED
#   bench-e2e    the repo's benchmark (BENCHMARK.json, its own package
#                under bench_e2e/): build, its tests, and one --smoke
#                run of each workload
#   lint         rustfmt + clippy (warnings are errors; clippy.toml's
#                disallowed-methods keep every socket opened in the
#                server's http.rs and every bench bin's command line and
#                report file in laminar_bench; rustc's unreachable_pub,
#                on at every product crate root, keeps a crate's surface
#                to its lib.rs), rustdoc with warnings as errors (no
#                broken or private intra-doc link), the check that neither
#                laminar-oracle nor laminar-bench is in any product crate's
#                dependency tree (`cargo tree` of the laminar facade), and
#                five text guards: script parsing and compiling behind
#                prepare(), the engine matching run events by type, not by
#                their JSON "type" field, a run event's wire form in
#                RunEvent::write_json, the per-event tree off the server's
#                /events route, and a run envelope's keys in RunConfig's
#                one codec (engine request.rs). `cargo build` itself keeps
#                `unsafe` out of the product crates (#![forbid(unsafe_code)])
#                and the registry's row form inside its store module (a
#                private trait)
#
# Every run ends with a per-tier wall-clock timing summary and, when all
# selected tiers passed, the line "CI GREEN".
set -euo pipefail
cd "$(dirname "$0")"

ALL_TIERS=(build test test-quick stress edge streaming chaos bench-smoke bench-e2e lint)
QUICK_TIERS=(build test-quick)

tier_build() {
  cargo build --release --workspace
  cargo build --examples
}

tier_test() {
  cargo test -q --workspace
}

tier_test_quick() {
  # Same suite, property tests at 8 cases instead of 64. The differential
  # VM-vs-oracle proptests still run — the quick gate trades fuzzing
  # depth for latency, not coverage of the parity contract.
  PROPTEST_CASES=8 cargo test -q --workspace
}

tier_stress() {
  cargo test -q -p laminar-server --test concurrent
  # Registry search differential: indexed answers must equal the linear
  # scan under randomized mutation histories, and survive WAL replay.
  cargo test -q -p laminar-registry --test proptest_search
}

tier_edge() {
  cargo test -q -p laminar-server --lib http::
  cargo test -q -p laminar-server --test edge
  cargo test -q -p laminar-client --lib web::tests::kept_connection
  cargo test -q -p laminar-client --lib web::tests::a_lying_content_length_is_an_error_not_an_abort
  cargo test -q -p laminar-client --lib client::tests::a_run_asking_for_more_than_256_processes_is_a_400_on_both_transports
}

tier_streaming() {
  cargo test -q -p laminar-workloads streaming
  cargo test -q --test integration streaming
  cargo test -q --test integration cancel
  cargo test -q -p laminar-dataflow --test proptest_mappings fold_of_recorded_stream
  cargo test -q -p laminar-dataflow --test proptest_cancel
  cargo test -q -p laminar-engine pool::tests::cancel
  cargo test -q -p laminar-engine --lib event_log::tests::
  cargo test -q --test delivery_allocs
  cargo test -q --test enact_allocs
  cargo test -q -p laminar-engine --test retained_bytes
  # A slow sink holds its upstream to a flat heap on Multi, MPI and Redis:
  # each instance's inbox on their shared mesh is bounded, counted in
  # bursts.
  cargo test -q -p laminar-dataflow --test mesh_inbox_bytes
}

tier_chaos() {
  # Durability under injected faults, at full property-test depth
  # (export PROPTEST_CASES to push deeper). chaos_truncation tears a
  # sealed journal segment on disk and resumes past it.
  cargo test -q -p laminar-dataflow --test proptest_chaos
  cargo test -q -p laminar-dataflow --test proptest_backends
  cargo test -q -p laminar-engine --test chaos_truncation
  cargo test -q -p laminar-dataflow mid_stream_worker_error
  cargo test -q -p laminar-engine --test proptest_slow_consumer
  cargo test -q -p laminar-engine --lib pool::tests::throttled_producer_loses_nothing_for_a_live_slow_consumer
  # A read through a path borrows its root and a builtin borrows its
  # first path argument: differential against the interpreter oracle.
  PROPTEST_CASES=512 cargo test -q -p laminar-script --test proptest_paths
  # A panicking instance winds down like a failing one: its run ends with
  # an error naming the panic on Multi, MPI and Redis, within a bound.
  cargo test -q -p laminar-dataflow --lib mapping::runtime::tests::a_panicking_source_fails_its_run_on_every_parallel_mapping
  # A job ends in one place: a panic fails it on every mapping, a resume
  # outlives its first attempt's retention entry, and each of seven jobs
  # settles once (a panic, done, a failure, a cancel while running and
  # while queued, and shutdown of a running and of a queued job).
  cargo test -q -p laminar-engine --lib -- \
    pool::tests::a_panicking_pe_fails_its_job_and_the_worker_serves_the_next \
    pool::tests::a_resumed_job_is_not_evicted_by_its_own_earlier_finish \
    pool::tests::every_terminal_path_settles_exactly_once
  # The registry's one write path: literal on-disk bytes replay to a
  # literal store, interleaved writers replay to the live store, and the
  # WAL's own cases (a refused write leaves no trace, the auto-snapshot
  # follows apply, corrupt input on open is a Storage error).
  cargo test -q -p laminar-registry --test disk_format
  cargo test -q -p laminar-registry --test proptest_interleaved
  cargo test -q -p laminar-registry --lib wal::tests::
}

tier_bench_smoke() {
  # Each bin writes target/bench/<bin>.json; bench_check reads them there.
  for bin in perf_report durability_overhead search_scale sustained_load; do
    cargo run --release -p laminar-bench --bin "$bin" -- --smoke
  done
  cargo run --release -p laminar-bench --bin bench_check
  # The paper's Tables 6 and 7: each exits non-zero when its shape is
  # violated (tests/paper_tables.rs pins every figure they print).
  cargo run --release -q -p laminar-bench --bin table6
  cargo run --release -q -p laminar-bench --bin table7
}

tier_bench_e2e() {
  local manifest=bench_e2e/Cargo.toml
  cargo build --release --offline --manifest-path "$manifest"
  cargo test --release --offline --manifest-path "$manifest"
  for workload in serve_small enact_heavy stream_push registry_mixed; do
    cargo run --release --offline --quiet --manifest-path "$manifest" -- --workload "$workload" --smoke
  done
}

tier_lint() {
  cargo fmt --check
  # Every product crate root carries #![warn(unreachable_pub)], so this
  # also fails on a `pub` item that its crate's surface does not reach.
  cargo clippy --workspace --all-targets -- -D warnings
  # Rustdoc warnings are errors too: a broken intra-doc link, or a public
  # item's doc linking to a private one.
  RUSTDOCFLAGS="-D warnings" cargo doc --offline --no-deps --workspace
  # One script backend, one search path: the tree-walker and the linear
  # scan live in laminar-oracle, for the differential suites and the bench
  # bins. The paper's offline evaluation (dataset generators, ranking
  # metrics, cross-encoder) lives in laminar-bench. The `laminar` facade
  # re-exports every product crate, so its normal dependency tree must
  # hold neither crate.
  local tree
  tree=$(cargo tree --offline -e normal -p laminar --prefix none)
  if grep -E '^laminar-(oracle|bench) ' <<<"$tree"; then
    echo "ci.sh: laminar-oracle and laminar-bench are not product crates; a product crate depends on one" >&2
    return 1
  fi
  # A script is prepared once, where it enters: `laminar_script::prepare`
  # is the only way text becomes runnable, so no engine, server or
  # registry code parses or compiles one itself outside its tests.
  # Kept as text: bench_e2e calls laminar_script::parse_script, so it stays public.
  if awk 'FNR == 1 { test = 0 } /^#\[cfg\(test\)\]/ { test = 1 }
          !test && /(parse|compile)_script\(/ { print FILENAME ":" FNR ": " $0; hit = 1 }
          END { exit !hit }' crates/{engine,server,registry}/src/*.rs; then
    echo "ci.sh: text becomes runnable through prepare() only; the lines above parse or compile it themselves" >&2
    return 1
  fi
  # One form for a run event: the job log and the pool hold and match the
  # typed `RunEvent`. Only the journal, whose records are JSON on disk,
  # may read an event's "type" field outside its tests.
  # Kept as text until ROADMAP item 11 deletes the JSON event tree it guards.
  if awk 'FNR == 1 { test = 0 } /^#\[cfg\(test\)\]/ { test = 1 }
          !test && /\["type"\]/ { print FILENAME ":" FNR ": " $0; hit = 1 }
          END { exit !hit }' $(ls crates/engine/src/*.rs | grep -v '/journal\.rs$'); then
    echo "ci.sh: a run event is matched as a RunEvent; the lines above probe its JSON form" >&2
    return 1
  fi
  # One writer of a run event's wire form: `RunEvent::write_json` writes
  # the text and `to_value` parses it, so no dataflow or engine source
  # builds an event's tree outside its tests (the reference tree the text
  # is checked against is laminar-oracle's).
  # Kept as text until ROADMAP item 11 deletes the JSON event tree it guards.
  if awk 'FNR == 1 { test = 0 } /^#\[cfg\(test\)\]/ { test = 1 }
          !test && /set\("type"/ { print FILENAME ":" FNR ": " $0; hit = 1 }
          END { exit !hit }' $(find crates/dataflow/src crates/engine/src -name '*.rs'); then
    echo "ci.sh: a run event's wire form is written by RunEvent::write_json only; the lines above build its tree" >&2
    return 1
  fi
  # One tree per delivered event, and it is the client's: the server sends
  # an event page as the text the pool wrote from the typed log
  # (`events_text_wait`), so nothing it is built from may ask the pool for
  # the page of trees outside its tests.
  # Kept as text until ROADMAP item 11 deletes the pool's tree page it guards.
  if awk 'FNR == 1 { test = 0 } /^#\[cfg\(test\)\]/ { test = 1 }
          !test && /\.events(_wait)?\(|EventPage/ { print FILENAME ":" FNR ": " $0; hit = 1 }
          END { exit !hit }' crates/server/src/*.rs; then
    echo "ci.sh: the /events route sends text, not trees; the lines above reach for the pool's tree page" >&2
    return 1
  fi
  # One codec for a run's settings: `RunConfig::write_envelope` and
  # `from_envelope` (engine request.rs) are the only code that writes or
  # reads a run envelope's keys, for the client's POST body, the server's
  # decode and the journal's job meta alike, so no other client, server or
  # engine file may set or index one outside its tests.
  # Kept as text: a JSON key spelled as a string literal has no type to forbid.
  if awk 'FNR == 1 { test = 0 } /^#\[cfg\(test\)\]/ { test = 1 }
          !test && /(\[|set\()"(input|mapping|processes|resources|options|checkpointEvery|pace_us)"/ {
            print FILENAME ":" FNR ": " $0; hit = 1 }
          END { exit !hit }' $(ls crates/{client,server,engine}/src/*.rs | grep -v '/engine/src/request\.rs$'); then
    echo "ci.sh: a run envelope is written and read by RunConfig in request.rs; the lines above spell its keys elsewhere" >&2
    return 1
  fi
}

usage() {
  # The header: every comment line after the shebang, up to the first line of code.
  awk 'NR > 1 { if (!/^#/) exit; sub(/^# ?/, ""); print }' "$0"
}

TIERS=()
QUICK=0
for arg in "$@"; do
  case "$arg" in
    --quick) QUICK=1 ;;
    --list) printf '%s\n' "${ALL_TIERS[@]}"; exit 0 ;;
    -h|--help) usage; exit 0 ;;
    -*) echo "ci.sh: unknown flag '$arg'" >&2; usage >&2; exit 2 ;;
    *) TIERS+=("$arg") ;;
  esac
done

if [ ${#TIERS[@]} -eq 0 ]; then
  if [ "$QUICK" -eq 1 ]; then
    TIERS=("${QUICK_TIERS[@]}")
  else
    TIERS=("${ALL_TIERS[@]}")
  fi
elif [ "$QUICK" -eq 1 ]; then
  echo "ci.sh: note: explicit tiers given; --quick only selects the default subset" >&2
fi

for tier in "${TIERS[@]}"; do
  case " ${ALL_TIERS[*]} " in
    *" $tier "*) ;;
    *) echo "ci.sh: unknown tier '$tier' (valid: ${ALL_TIERS[*]})" >&2; exit 2 ;;
  esac
done

TIER_NAMES=()
TIER_SECS=()
for tier in "${TIERS[@]}"; do
  echo "== tier: $tier =="
  t0=$SECONDS
  "tier_${tier//-/_}"
  TIER_NAMES+=("$tier")
  TIER_SECS+=($((SECONDS - t0)))
done

echo
echo "== CI timing summary =="
total=0
for i in "${!TIER_NAMES[@]}"; do
  printf '  %-12s %4ds\n' "${TIER_NAMES[$i]}" "${TIER_SECS[$i]}"
  total=$((total + TIER_SECS[i]))
done
printf '  %-12s %4ds\n' "total" "$total"

echo "CI GREEN"
