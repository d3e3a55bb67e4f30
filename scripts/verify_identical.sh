#!/bin/sh
# Cross-commit output gate (make verify-identical BASE=<rev>).
#
# Builds cmd/experiments and cmd/graphiod twice, at BASE (exported with
# git archive into a temp dir) and from the working tree, and requires the
# two builds to produce the same outputs:
#
#   - a quick sweep's report.txt and every CSV, byte for byte, except
#     fig11's spectral_s and mincut_s wall-clock columns;
#   - the artifact hashes a fresh one-worker daemon reports for a dense
#     job (fft:5) and a Chebyshev job (bhk:11), each submitted twice at
#     different M, so that the second of each pair reuses the spectrum
#     the first one solved when the build memoizes spectra.
#
# Fails naming the first output that differs. Run from the repository
# root, e.g. `sh scripts/verify_identical.sh origin/main`.
set -eu

if [ $# -ne 1 ]; then
    echo "usage: sh scripts/verify_identical.sh BASE" >&2
    exit 2
fi
base=$1
work=$(mktemp -d)
pids=""
cleanup() {
    for p in $pids; do kill -9 "$p" 2>/dev/null || true; done
    rm -rf "$work"
}
trap cleanup EXIT

fail() {
    echo "verify-identical: $*" >&2
    exit 1
}

echo "verify-identical: building $base and the working tree"
mkdir -p "$work/src" "$work/base" "$work/head"
git archive "$base" | tar -x -C "$work/src"
(cd "$work/src" && go build -o "$work/base/" ./cmd/experiments ./cmd/graphiod)
go build -o "$work/head/" ./cmd/experiments ./cmd/graphiod

for side in base head; do
    echo "verify-identical: quick sweep with the $side build"
    if ! "$work/$side/experiments" -profile quick -out "$work/$side/out" >"$work/$side/sweep.log" 2>&1; then
        cat "$work/$side/sweep.log" >&2
        fail "the $side sweep failed"
    fi
done

# masked FILE: FILE with the spectral_s and mincut_s columns of fig11
# (wall-clock seconds) replaced by "-", in fig11.csv and in report.txt's
# fig11 section; every other file verbatim.
masked() {
    case "$(basename "$1")" in
    fig11.csv)
        awk -F, -v OFS=, '
            NR == 1 { for (i = 1; i <= NF; i++) if ($i == "spectral_s" || $i == "mincut_s") m[i] = 1 }
            NR > 1 { for (i in m) $i = "-" }
            { print }' "$1"
        ;;
    report.txt)
        awk '
            /^# / { sec = $2; hdr = 1; split("", m); print; next }
            sec == "fig11" && hdr { for (i = 1; i <= NF; i++) if ($i == "spectral_s" || $i == "mincut_s") m[i] = 1 }
            { hdr = 0 }
            sec == "fig11" && /^[0-9]/ { for (i in m) $i = "-" }
            { print }' "$1"
        ;;
    *) cat "$1" ;;
    esac
}

(cd "$work/base/out" && ls report.txt *.csv) >"$work/base.list"
(cd "$work/head/out" && ls report.txt *.csv) >"$work/head.list"
if ! cmp -s "$work/base.list" "$work/head.list"; then
    name=$(diff "$work/base.list" "$work/head.list" | sed -n 's/^[<>] //p' | head -n 1)
    fail "$name is produced by only one build"
fi
while read -r name; do
    masked "$work/base/out/$name" >"$work/base.cmp"
    masked "$work/head/out/$name" >"$work/head.cmp"
    if ! cmp -s "$work/base.cmp" "$work/head.cmp"; then
        diff "$work/base.cmp" "$work/head.cmp" | head -n 10 >&2 || true
        fail "$name differs between $base and the working tree"
    fi
done <"$work/base.list"
echo "verify-identical: report.txt and $(($(wc -l <"$work/base.list") - 1)) CSVs identical"

# wait_line FILE PATTERN PID: poll FILE until PATTERN appears, failing
# fast if process PID dies first.
wait_line() {
    i=0
    while ! grep -q "$2" "$1" 2>/dev/null; do
        if ! kill -0 "$3" 2>/dev/null; then
            cat "$1" >&2
            fail "process $3 died before '$2' appeared in $1"
        fi
        i=$((i + 1))
        if [ "$i" -gt 300 ]; then
            cat "$1" >&2
            fail "timed out waiting for '$2' in $1"
        fi
        sleep 0.1
    done
}

# Each job: a label and the submit flags. The daemon runs one worker, so
# the jobs run in this order and the M=16 jobs find their graph solved.
jobs="fft:5-m8|-spec fft:5 -m 8 -max-k 8 -solver dense
bhk:11-m8|-spec bhk:11 -m 8
fft:5|-spec fft:5 -m 16 -max-k 8 -solver dense
bhk:11|-spec bhk:11 -m 16"

for side in base head; do
    echo "verify-identical: graphiod jobs on a fresh $side daemon"
    bin="$work/$side/graphiod"
    "$bin" -data "$work/$side/data" -addr 127.0.0.1:0 -workers 1 >"$work/$side/daemon.log" 2>&1 &
    pid=$!
    pids="$pids $pid"
    wait_line "$work/$side/daemon.log" "^graphiod listening on " "$pid"
    server="http://$(sed -n 's/^graphiod listening on //p' "$work/$side/daemon.log" | head -n 1)"
    echo "$jobs" | while IFS='|' read -r label flags; do
        # $flags is unquoted on purpose: it splits into the submit flags.
        "$bin" submit -server "$server" $flags | sed -n "s/^id=\([^ ]*\).*/$label \1/p"
    done >"$work/$side/ids"
    ids=$(awk '{ print $2 }' "$work/$side/ids" | paste -sd, -)
    "$bin" wait -server "$server" -id "$ids" -timeout 5m >"$work/$side/wait" || true
    while read -r label id; do
        line=$(grep "^id=$id " "$work/$side/wait" || true)
        case "$line" in
        *status=done*) ;;
        *) fail "$side daemon did not finish $label: ${line:-no status}" ;;
        esac
        echo "$label $(echo "$line" | sed -n 's/.* sha=\([0-9a-f]*\).*/\1/p')" >>"$work/$side/shas"
    done <"$work/$side/ids"
    kill -TERM "$pid"
    wait "$pid" || true
done

while read -r label sha; do
    other=$(sed -n "s/^$label //p" "$work/head/shas")
    if [ -z "$sha" ] || [ "$sha" != "$other" ]; then
        fail "graphiod artifact for $label differs: $base sha '$sha', working tree sha '$other'"
    fi
done <"$work/base/shas"

echo "verify-identical: OK (sweep outputs and graphiod artifacts identical to $base)"
