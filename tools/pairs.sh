#!/usr/bin/env bash
# Same-session A/B timing of one benchmark workload: revision REV against
# the working tree, in alternating pairs.
#
#     tools/pairs.sh REV WORKLOAD N [SECONDS [SEED]]
#
# Both sides run from fresh copies in a temporary directory: REV unpacked
# with `git archive` into rev/, the working tree (its tracked files and the
# untracked ones .gitignore keeps, uncommitted edits included) copied with
# tar into new/.  A fresh copy holds no bytecode cache, so where
# PYTHONDONTWRITEBYTECODE is set both sides compile from source alike.  The
# two directory names have one length: the length of the source path alone
# moved a strip solve's time by about 8 % between identical copies.
# Pair i (0-based) runs
#
#     python3 benchmarks/run.py --workload WORKLOAD --seed SEED+i --seconds SECONDS --trace 0
#
# once on each side, one process at a time; even pairs run REV first, odd
# pairs the working tree first, so a drift of the host over a pair does not
# favour one side.  SECONDS defaults to 20 and SEED to 0.  Each pair prints
# steps_per_s of both sides (rev, new) and their ratio; then each side
# prints the median and quartiles of every end-to-end metric, and the next
# lines give new's median steps_per_s gain against rev's interquartile range
# and the pairs in which new ran more steps per second.  Last, one line per
# end-to-end metric of BENCHMARK.json gives the median ratio new/rev
# (median of new over median of rev), rev's interquartile range and the
# pairs in which new read worse by that metric's `better` direction; a tie
# counts for neither side.  Exits 0 when every run's outputs matched the
# frozen reference, 1 if any run failed or read WRONG, 2 on a usage error.
set -u

if [ $# -lt 3 ] || [ $# -gt 5 ]; then
    echo "usage: $0 REV WORKLOAD N [SECONDS [SEED]]" >&2
    exit 2
fi
rev=$1 workload=$2 pairs=$3 seconds=${4:-20} seed0=${5:-0}
top=$(git rev-parse --show-toplevel) || exit 2
git -C "$top" rev-parse --verify --quiet "$rev^{commit}" >/dev/null || {
    echo "pairs: unknown revision $rev" >&2
    exit 2
}

work=$(mktemp -d "${TMPDIR:-/tmp}/iskak-pairs.XXXXXX")
trap 'rm -rf "$work"' EXIT
mkdir -p "$work/rev" "$work/new"
git -C "$top" archive "$rev" | tar -x -C "$work/rev"
(cd "$top" && git ls-files -z --cached --others --exclude-standard \
    | while IFS= read -r -d '' f; do [ -e "$f" ] && printf '%s\0' "$f"; done \
    | tar -c --null -T - -f -) | tar -x -C "$work/new"

# run SIDE SEED: one benchmark run on SIDE's copy; appends "SIDE SEED JSON"
# to the results, or "SIDE SEED FAILED" if the run exits nonzero
run() {
    local side=$1 seed=$2 out
    if out=$(cd "$work/$side" && python3 benchmarks/run.py --workload "$workload" \
                 --seed "$seed" --seconds "$seconds" --trace 0 2>"$work/stderr.txt"); then
        echo "$side $seed $(printf '%s\n' "$out" | tail -n 1)" >>"$work/results"
    else
        echo "$side $seed FAILED" >>"$work/results"
        tail -n 5 "$work/stderr.txt" | sed "s/^/    $side: /" >&2
    fi
}

echo "pairs: $pairs x $workload, ${seconds} s runs, seeds $seed0.., $rev against" \
     "the working tree ($(git -C "$top" rev-parse --short HEAD) + edits)"
: >"$work/results"
for ((i = 0; i < pairs; i++)); do
    seed=$((seed0 + i))
    if ((i % 2 == 0)); then
        run rev "$seed"
        run new "$seed"
    else
        run new "$seed"
        run rev "$seed"
    fi
    python3 - "$work/results" "$seed" <<'PY'
import json
import sys

rows = {}
for line in open(sys.argv[1]):
    side, seed, rest = line.split(" ", 2)
    if seed == sys.argv[2]:
        rows[side] = None if rest.strip() == "FAILED" else json.loads(rest)
rate = {s: r["metrics"]["steps_per_s"]["value"] if r else float("nan")
        for s, r in rows.items()}
print(f"seed {sys.argv[2]}: rev {rate['rev']:.1f}  new {rate['new']:.1f}  "
      f"new/rev {rate['new'] / rate['rev']:.3f}")
PY
done

python3 - "$work/results" "$work/new/BENCHMARK.json" <<'PY'
import json
import statistics
import sys

runs = {"rev": {}, "new": {}}
failed = 0
for line in open(sys.argv[1]):
    side, seed, rest = line.split(" ", 2)
    if rest.strip() == "FAILED":
        failed += 1
        continue
    res = json.loads(rest)
    failed += not res["correct"]
    runs[side][seed] = {k: v["value"] for k, v in res["metrics"].items()}


def spread(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, med, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, med, q3


metrics = sorted({m for side in runs.values() for r in side.values() for m in r})
for side in ("rev", "new"):
    for m in metrics:
        xs = [r[m] for r in runs[side].values()]
        if xs:
            q1, med, q3 = spread(xs)
            print(f"{side:4s} {m:12s} median {med:.6g}  quartiles {q1:.6g} .. {q3:.6g}  "
                  f"({len(xs)} runs)")
both = sorted(set(runs["rev"]) & set(runs["new"]), key=int)
if both:
    rev = [runs["rev"][s]["steps_per_s"] for s in both]
    new = [runs["new"][s]["steps_per_s"] for s in both]
    q1, med, q3 = spread(rev)
    gain = statistics.median(new) - med
    print(f"steps_per_s median gain {gain:+.1f} ({gain / med:+.1%}) against "
          f"rev interquartile range {q3 - q1:.1f}")
    print(f"new ahead in {sum(t > r for t, r in zip(new, rev))}/{len(both)} pairs")
    for e in json.load(open(sys.argv[2]))["end_to_end"]:
        m = e["name"]
        pair = [(runs["rev"][s][m], runs["new"][s][m]) for s in both
                if m in runs["rev"][s] and m in runs["new"][s]]
        if not pair:
            continue
        q1, med, q3 = spread([r for r, _ in pair])
        ratio = statistics.median(n for _, n in pair) / med if med else float("nan")
        worse = sum(n > r if e["better"] == "lower" else n < r for r, n in pair)
        print(f"{m}: median new/rev {ratio:.4f}  rev interquartile range {q3 - q1:.6g}  "
              f"new worse in {worse}/{len(pair)} pairs ({e['better']} is better)")
if failed:
    print(f"pairs: {failed} run(s) failed or read WRONG")
sys.exit(1 if failed else 0)
PY
