#!/usr/bin/env bash
# Refactor oracle: run the ten reference configurations on revision REV
# and on the working tree, and compare every output file byte for byte.
#
#     tools/oracle.sh REV
#
# REV is unpacked with `git archive` into a temporary directory; the working
# tree is run as it stands, uncommitted edits included.  The configurations
# are the six experiments at their default config, `simulate --override
# model=ww`, `simulate --override n_points=512 --override t_end=0.02` and a
# `convergence` sweep whose every reference aborts at its t = 0 record
# (`dtn_tol=1e-17`), which exercises the abort path, and `conservation
# --override t_end=2e-3`, whose finer halving leg drifts by exactly zero,
# which exercises the failing halving check.
# Each run's CSV, summary, snapshots, stdout and exit code are compared with
# cmp, one verdict line per file; a differing file also shows the first
# lines of its diff.  Exits 0 if every file is identical, 1 if any differs
# or is missing on one side, 2 on a usage error.  The two trees run side by
# side, one process each.
set -u

if [ $# -ne 1 ]; then
    echo "usage: $0 REV" >&2
    exit 2
fi
rev=$1
top=$(git rev-parse --show-toplevel) || exit 2
git -C "$top" rev-parse --verify --quiet "$rev^{commit}" >/dev/null || {
    echo "oracle: unknown revision $rev" >&2
    exit 2
}

work=$(mktemp -d "${TMPDIR:-/tmp}/iskak-oracle.XXXXXX")
trap 'rm -rf "$work"' EXIT
mkdir -p "$work/rev"
git -C "$top" archive "$rev" | tar -x -C "$work/rev"

configs=(
    "dispersion dispersion"
    "consistency consistency"
    "elliptic-suite elliptic-suite"
    "simulate simulate"
    "conservation conservation"
    "convergence convergence"
    "simulate-ww simulate --override model=ww"
    "simulate-n512 simulate --override n_points=512 --override t_end=0.02"
    "convergence-abort convergence --override dtn_tol=1e-17 --override phi_amplitude=0.1 --override t_end=0.2"
    "conservation-halving conservation --override t_end=2e-3"
)

# run_tree TREE OUT: every configuration on TREE's sources, outputs under OUT.
# stderr is kept but not compared: warnings name source paths, which differ.
run_tree() {
    local tree=$1 out=$2 entry name
    for entry in "${configs[@]}"; do
        set -- $entry
        name=$1
        shift
        mkdir -p "$out/$name"
        PYTHONPATH="$tree/src" python3 -m iskak.cli "$@" --output-dir "$out/$name" \
            >"$out/$name/stdout.txt" 2>"$out/$name/stderr.txt"
        echo "$?" >"$out/$name/exit_code"
    done
}

echo "oracle: running $rev and the working tree ($(git -C "$top" rev-parse --short HEAD) + edits)"
run_tree "$work/rev" "$work/out-rev" &
run_tree "$top" "$work/out-tree"
wait

for dir in "$work/out-rev" "$work/out-tree"; do
    (cd "$dir" && find . -type f ! -name stderr.txt)
done | sort -u | while read -r rel; do
    rel=${rel#./}
    a="$work/out-rev/$rel"
    b="$work/out-tree/$rel"
    if [ ! -f "$a" ] || [ ! -f "$b" ]; then
        echo "MISSING    $rel"
    elif cmp -s "$a" "$b"; then
        echo "identical  $rel"
    else
        echo "DIFFERS    $rel"
        diff "$a" "$b" | head -n 6 | sed 's/^/    /'
    fi
done | tee "$work/verdicts"
if grep -qv '^identical' "$work/verdicts"; then
    echo "oracle: outputs differ from $rev"
    exit 1
fi
echo "oracle: every output identical to $rev"
