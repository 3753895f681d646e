#!/usr/bin/env bash
# Refactor oracle: run every reference configuration (the configs array
# below) on revision REV and on the working tree, and compare every output
# file byte for byte.
#
#     tools/oracle.sh REV
#
# REV is unpacked with `git archive` into a temporary directory; the working
# tree is run as it stands, uncommitted edits included.  Each configs entry
# is a run name and the iskak command line that follows it, with its reason
# in the comment above it; tests/test_package.py loads every entry's config,
# since an entry that both trees reject as a config error compares as
# identical.
#
# Each run's CSV, summary, snapshots, stdout and exit code are compared with
# cmp, one verdict line per file.  A differing summary, stdout or exit code
# also shows its whole diff, every hunk; a differing CSV the first lines of
# its diff and, with the same header and row count, the largest absolute and
# relative cell move of each numeric column that moved, relative to REV's
# cell.  A differing summary also gets one line that pairs its PASS/FAIL
# check lines in order, e.g. `verdicts: 6 checks, 0 flipped PASS<->FAIL`,
# so a change that moves outputs at rounding level shows in one line that
# no verdict flipped; the line leaves the exit status alone.  Each run's
# peak resident set (the child's ru_maxrss, read by a python3 wrapper) is
# kept in peak_rss_mb.txt, which, like stderr.txt, is not compared; a
# `peak RSS rev -> tree` table in MB follows the verdicts and leaves the
# exit status alone.  Exits 0 if every file is identical, 1 if any differs
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
    # the six experiments at their default config
    "dispersion dispersion"
    "consistency consistency"
    "elliptic-suite elliptic-suite"
    "simulate simulate"
    "conservation conservation"
    "convergence convergence"
    # the water-wave model at simulate's defaults
    "simulate-ww simulate --override model=ww"
    # the IK model on transforms (above spectral.MATRIX_MAX_N)
    "simulate-n512 simulate --override n_points=512 --override t_end=0.02"
    # steep data: the delta = 0.4 and 0.3 legs abort on depth collapse (the abort path)
    "convergence-abort convergence --override amplitude=0.5 --override k0=20 --override t_end=0.05"
    # the finer halving leg drifts by exactly zero (the failing halving check)
    "conservation-halving conservation --override t_end=2e-3"
    # the strip solve on transforms (above spectral.MATRIX_MAX_N)
    "simulate-ww-n256 simulate --override model=ww --override n_points=256 --override t_end=0.02"
    # the IK constraint residual outgrows its bound (the failing constraint check)
    "simulate-k10 simulate --override k0=10 --override t_end=0.1"
    # the config-file reader; both runs read the working tree's file, so REV may predate it
    "simulate-config simulate --config $top/tools/oracle-simulate.cfg"
    # the series backend's Lambda^(0) control stepped on its own
    "simulate-ww-series simulate --override model=ww --override dtn=series:0"
    # the one consistency run on transforms, whose identity-gap check fails
    "consistency-n512 consistency --override n_points=512"
    # the one sweep from a nonzero potential, whose velocity-slope check fails
    "convergence-phi convergence --override phi_amplitude=0.02 --override t_end=0.2"
    # the one run that builds its strip workspaces at an n_z other than 16
    "consistency-nz24 consistency --override dtn=exact:24"
    # the one run without delta = 0.3: the identity-gap check's worst-leg branch
    "consistency-worst-leg consistency --override delta=0.4,0.2,0.1"
    # rest data: every water-wave stage starts from a zero right side
    "convergence-rest convergence --override amplitude=0 --override t_end=0.05"
    # the order legs on a grid the data outgrow: they transport the constraint to
    # about 5e-8 only, so its check fails (its halving ratio fails too)
    "conservation-n64 conservation --override n_points=64 --override t_end=0.1"
)

# column_moves A B: for two CSVs of one header and row count, the largest
# absolute and relative cell move of each numeric column that moved (a cell
# that leaves 0 moves by inf relative).
column_moves() {
    python3 - "$1" "$2" <<'PY'
import csv
import math
import sys


def table(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


a, b = table(sys.argv[1]), table(sys.argv[2])
if not a or not b or a[0] != b[0] or len(a) != len(b):
    sys.exit("columns: header or row count differs")
for j, name in enumerate(a[0]):
    try:
        pairs = [(float(ra[j]), float(rb[j])) for ra, rb in zip(a[1:], b[1:])]
    except (ValueError, IndexError):
        continue
    moved = [(abs(y - x), abs(y - x) / abs(x) if x else math.inf)
             for x, y in pairs if x != y and not (math.isnan(x) and math.isnan(y))]
    if moved:
        print(f"column {name}: {len(moved)} of {len(pairs)} cells moved, "
              f"max abs {max(m[0] for m in moved):.3e}, max rel {max(m[1] for m in moved):.3e}")
PY
}

# verdict_flips A B: pair the PASS/FAIL check lines of two summaries in
# order and count those whose verdict differs.
verdict_flips() {
    python3 - "$1" "$2" <<'PY'
import sys


def verdicts(path):
    with open(path) as fh:
        return [line.split()[0] for line in fh if line.split()[:1] in (["PASS"], ["FAIL"])]


a, b = verdicts(sys.argv[1]), verdicts(sys.argv[2])
flipped = sum(x != y for x, y in zip(a, b))
if len(a) == len(b):
    print(f"verdicts: {len(a)} checks, {flipped} flipped PASS<->FAIL")
else:
    print(f"verdicts: {len(a)} checks -> {len(b)}, {flipped} of the first "
          f"{min(len(a), len(b))} flipped PASS<->FAIL")
PY
}

# peak_rss FILE CMD...: run CMD, write its peak resident set in MB (the
# child's ru_maxrss) to FILE, and exit with CMD's status.
peak_rss() {
    python3 -c '
import resource
import subprocess
import sys

code = subprocess.call(sys.argv[2:])
with open(sys.argv[1], "w") as fh:
    fh.write(f"{resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024:.1f}\n")
sys.exit(code if code >= 0 else 128 - code)
' "$@"
}

# run_tree TREE OUT: every configuration on TREE's sources, outputs under OUT.
# stderr is kept but not compared: warnings name source paths, which differ.
run_tree() {
    local tree=$1 out=$2 entry name
    for entry in "${configs[@]}"; do
        set -- $entry
        name=$1
        shift
        mkdir -p "$out/$name"
        PYTHONPATH="$tree/src" peak_rss "$out/$name/peak_rss_mb.txt" \
            python3 -m iskak.cli "$@" --output-dir "$out/$name" \
            >"$out/$name/stdout.txt" 2>"$out/$name/stderr.txt"
        echo "$?" >"$out/$name/exit_code"
    done
}

echo "oracle: running $rev and the working tree ($(git -C "$top" rev-parse --short HEAD) + edits)"
run_tree "$work/rev" "$work/out-rev" &
run_tree "$top" "$work/out-tree"
wait

for dir in "$work/out-rev" "$work/out-tree"; do
    (cd "$dir" && find . -type f ! -name stderr.txt ! -name peak_rss_mb.txt)
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
        case $rel in
            *.csv)
                diff "$a" "$b" | head -n 6 | sed 's/^/    /'
                column_moves "$a" "$b" 2>&1 | sed 's/^/    /' ;;
            *.summary.txt)
                verdict_flips "$a" "$b" 2>&1 | sed 's/^/    /'
                diff "$a" "$b" | sed 's/^/    /' ;;
            *) diff "$a" "$b" | sed 's/^/    /' ;;
        esac
    fi
done | tee "$work/verdicts"

printf '%-22s %s\n' "peak RSS (MB)" "rev -> tree"
for entry in "${configs[@]}"; do
    name=${entry%% *}
    printf '%-22s %s -> %s\n' "$name" \
        "$(cat "$work/out-rev/$name/peak_rss_mb.txt" 2>/dev/null || echo '?')" \
        "$(cat "$work/out-tree/$name/peak_rss_mb.txt" 2>/dev/null || echo '?')"
done

if grep -qv '^identical' "$work/verdicts"; then
    echo "oracle: outputs differ from $rev"
    exit 1
fi
echo "oracle: every output identical to $rev"
