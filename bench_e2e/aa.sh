#!/usr/bin/env bash
# A/A harness: does the benchmark agree with itself?
#
#   bench_e2e/aa.sh [passes-per-set, default 10]
#
# Runs two sets (A, B) of full passes over every workload of
# BENCHMARK.json on the *same* build, alternating set membership pass by
# pass so that slow drift of the machine hits both sets alike, each pass
# with its own seed. For every workload/metric pair it prints each set's
# median and quartiles, the run-to-run spread (IQR / median), how much
# worse B's median is than A's, and a verdict against the metric's bound:
# FAIL when the medians disagree by more than the bound, UNRESOLVED when
# they agree but a set's spread is wider than the bound (the pair could
# not have shown a regression of that size), PASS otherwise. A second
# table holds the same estimators of the same runs as measured, before
# the correction to nominal machine speed, and the machine's slowdown by
# the speed reference. Results go under the build output.
set -euo pipefail

here=$(cd "$(dirname "$0")" && pwd)
root=$(dirname "$here")
passes=${1:-10}
target=${CARGO_TARGET_DIR:-$here/target}
out=$target/aa
mkdir -p "$out"
rm -f "$out"/*.txt

cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml"
seconds=$(python3 -c "import json; print(json.load(open('$root/BENCHMARK.json'))['run_seconds'])")
workloads=$(python3 -c "import json; print(' '.join(w['name'] for w in json.load(open('$root/BENCHMARK.json'))['workloads']))")

for pass in $(seq 1 $((2 * passes))); do
    if ((pass % 2)); then set=A; else set=B; fi
    for workload in $workloads; do
        echo "pass $pass (set $set) $workload" >&2
        "$target/release/bench_e2e" --workload "$workload" --seed $((1000 + pass)) --seconds "$seconds" --trace 0 \
            >"$out/$set.$workload.$pass.txt"
    done
done

python3 - "$root/BENCHMARK.json" "$out" <<'EOF'
import glob, json, re, statistics, sys

bench = json.load(open(sys.argv[1]))
out = sys.argv[2]

def runs(set_name, workload):
    texts = [open(f).read() for f in sorted(glob.glob(f"{out}/{set_name}.{workload}.*.txt"))]
    results = [json.loads(t.strip().splitlines()[-1]) for t in texts]
    assert all(r["correct"] for r in results), f"failed ops in set {set_name} of {workload}"
    return texts, results

def summary(v):
    q1, _, q3 = statistics.quantiles(v, n=4)
    return statistics.median(v), q1, q3

def row(workload, name, better, bound, a, b):
    (ma, a1, a3), (mb, b1, b3) = summary(a), summary(b)
    worse = (mb - ma) / ma if better == "lower" else (ma - mb) / ma
    spread = max((a3 - a1) / ma, (b3 - b1) / mb)
    verdict = "" if bound is None else "FAIL" if abs(worse) > bound else "UNRESOLVED" if spread > bound else "PASS"
    print(f"{workload:<15} {name:<26} {ma:>11.4f} [{a1:>10.4f},{a3:>10.4f}] {mb:>11.4f} [{b1:>10.4f},{b3:>10.4f}] "
          f"{(a3 - a1) / ma:>8.1%} {(b3 - b1) / mb:>8.1%} {worse:>+8.1%} "
          f"{'' if bound is None else format(bound, '.2f'):>6}  {verdict}")
    return verdict

header = (f"{'workload':<15} {'metric':<26} {'A median [q1, q3]':>35} {'B median [q1, q3]':>35} "
          f"{'spread A':>8} {'spread B':>8} {'B worse':>8} {'bound':>6}  verdict")
print(header)
verdicts = []
for w in bench["workloads"]:
    (_, ra), (_, rb) = runs("A", w["name"]), runs("B", w["name"])
    for m in bench["end_to_end"]:
        a, b = ([r["metrics"][m["name"]]["value"] for r in rs] for rs in (ra, rb))
        verdicts.append(row(w["name"], m["name"], m["better"], m["bound"], a, b))
print(f"{verdicts.count('PASS')} of {len(verdicts)} pairs PASS, {verdicts.count('UNRESOLVED')} UNRESOLVED, "
      f"{verdicts.count('FAIL')} FAIL")

print()
print("the same runs as measured, before the correction to nominal machine speed (no bound):")
print(header)
for w in bench["workloads"]:
    (ta, _), (tb, _) = runs("A", w["name"]), runs("B", w["name"])
    for name, better in (("raw.setup_s", "lower"), ("raw.ops_per_s", "higher"), ("raw.op_p50_ms", "lower"),
                         ("raw.cpu_ms_per_op", "lower"), ("machine.slowdown", "lower")):
        a, b = ([float(re.search(rf"^\s+{re.escape(name)} (\S+)", t, re.M).group(1)) for t in ts] for ts in (ta, tb))
        row(w["name"], name, better, None, a, b)
sys.exit(0 if verdicts.count("PASS") == len(verdicts) else 1)
EOF
