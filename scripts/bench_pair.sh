#!/bin/sh
# Same-host benchmark gate (make bench-check BASE=<rev>).
#
# Runs the repository's benchmark, perfbench, in alternating pairs on this
# host: one run with BASE's program and one with the working tree's. BASE is
# exported with git archive into a temp dir, and the export's perfbench/ and
# BENCHMARK.json are replaced by the working tree's, so both sides run the
# same benchmark code and only the program differs. Every run goes through
# perfbench/run.sh, as BENCHMARK.json's command does.
#
# For each workload in BENCHMARK.json: 3 pairs at seed 1, run_seconds each,
# the side that runs first alternating from pair to pair. Then one row per
# (workload, end-to-end metric): BASE's quartiles and median (R-7, as in
# perfbench/stats.go), the working tree's median, and a verdict:
#
#   worse       the working tree's median is worse than BASE's by more than
#               the metric's bound, relative to BASE's median;
#   unresolved  BASE's own q3 - q1 exceeds the bound times its median,
#               unless every working-tree run beats every BASE run;
#   ok          anything else.
#
# A workload with a worse or unresolved row gets one traced pair
# (--trace 1), and `perfbench compare` names the layers that moved.
#
# Exits 0 when every row is ok or unresolved; 1 on a worse row, a run whose
# result is not correct, or a higher failed/attempted share than BASE's; 2
# on a usage or build error. Three pairs cannot show a gain: a claim needs
# ten or more. Run from the repository root, e.g.
# `sh scripts/bench_pair.sh origin/main`.
set -eu

if [ $# -ne 1 ]; then
    echo "usage: sh scripts/bench_pair.sh BASE" >&2
    exit 2
fi
base=$1
pairs=3
seed=1
tree=$(pwd)
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
trap 'exit 130' INT TERM

die() {
    code=$1
    shift
    echo "bench-pair: $*" >&2
    exit "$code"
}

# BENCHMARK.json's run_seconds, workloads and end-to-end metrics, one per
# line ("seconds S", "workload NAME", "metric NAME BETTER BOUND"), read by a
# small JSON tokenizer so that the file's layout does not matter.
awk '
{ s = s $0 "\n" }
END {
    d = 0
    while (s != "") {
        if (match(s, /^[ \t\r\n]+/)) { s = substr(s, RLENGTH + 1); continue }
        c = substr(s, 1, 1)
        if (c == "{" || c == "[") {
            d++
            type[d] = c; key[d] = ""; wantkey[d] = c == "{"
            under[d] = type[d - 1] == "{" ? key[d - 1] : under[d - 1]
            s = substr(s, 2); continue
        }
        if (c == "}" || c == "]") {
            if (c == "}" && d == 3 && under[d] == "end_to_end")
                print "metric", f["name"], f["better"], f["bound"]
            split("", f); d--
            s = substr(s, 2); continue
        }
        if (c == ":") { wantkey[d] = 0; s = substr(s, 2); continue }
        if (c == ",") { wantkey[d] = type[d] == "{"; s = substr(s, 2); continue }
        if (match(s, /^"([^"\\]|\\.)*"/)) tok = substr(s, 2, RLENGTH - 2)
        else if (match(s, /^[-+.0-9A-Za-z]+/)) tok = substr(s, 1, RLENGTH)
        else exit 1
        s = substr(s, RLENGTH + 1)
        if (type[d] == "{" && wantkey[d]) { key[d] = tok; continue }
        if (d == 1 && key[1] == "run_seconds") print "seconds", tok
        if (d == 3 && under[d] == "workloads" && key[d] == "name") print "workload", tok
        if (d == 3 && under[d] == "end_to_end") f[key[d]] = tok
    }
}' BENCHMARK.json >"$work/spec" || die 2 "cannot parse BENCHMARK.json"
seconds=$(awk '$1 == "seconds" { print $2 }' "$work/spec")
workloads=$(awk '$1 == "workload" { print $2 }' "$work/spec")
metrics=$(awk '$1 == "metric" && ($3 == "lower" || $3 == "higher") && $4 > 0 { printf "%s ", $2 }' "$work/spec")
if [ -z "$seconds" ] || [ -z "$workloads" ] || [ -z "$metrics" ]; then
    die 2 "BENCHMARK.json gives no run_seconds, workloads or end-to-end metrics with better and bound"
fi

git rev-parse -q --verify "$base^{commit}" >/dev/null || die 2 "$base is not a commit"
mkdir "$work/base"
git archive "$base" | tar -x -C "$work/base"
rm -rf "$work/base/perfbench"
cp -R perfbench BENCHMARK.json "$work/base/"

# root SIDE: the directory a side's runs start from.
root() {
    if [ "$1" = base ]; then echo "$work/base"; else echo "$tree"; fi
}

# run.sh builds before it runs, and perfbench -h exits 0, so this is a
# build check.
echo "bench-pair: building perfbench against $base and against the working tree"
for side in base tree; do
    if ! (cd "$(root $side)" && bash perfbench/run.sh -h) >"$work/build.$side" 2>&1; then
        tail -n 20 "$work/build.$side" >&2
        if [ $side = base ]; then die 2 "perfbench does not build against $base"; fi
        die 2 "perfbench does not build against the working tree"
    fi
done

# run SIDE WORKLOAD TRACE OUT: one perfbench run from SIDE's root into OUT.
# An untraced run with every end-to-end metric appends "WORKLOAD SIDE
# ATTEMPTED FAILED METRIC=VALUE..." to runs. A run that exits non-zero,
# lacks a metric or whose result line is not correct is reported and fails
# the gate.
incorrect=0
: >"$work/runs"
run() {
    if (cd "$(root "$1")" && bash perfbench/run.sh --workload "$2" --seed $seed --seconds "$seconds" --trace "$3") </dev/null >"$4" 2>"$4.err" &&
        tail -n 1 "$4" | awk -v w="$2" -v side="$1" -v names="$metrics" -v traced="$3" '
            function num(k,   i, r) {
                if (!(i = index($0, k))) return ""
                r = substr($0, i + length(k))
                return match(r, /^[-+0-9.eE]+/) ? substr(r, 1, RLENGTH) : ""
            }
            {
                correct = index($0, "\"correct\":true") > 0
                if (traced) exit !correct
                line = w " " side " " num("\"attempted\":") " " num("\"failed\":")
                n = split(names, nm, " ")
                for (i = 1; i <= n; i++) {
                    v = num("\"" nm[i] "\":{\"value\":")
                    if (v == "") exit 1
                    line = line " " nm[i] "=" v
                }
                print line
                exit !correct
            }' >>"$work/runs"; then
        return 0
    fi
    incorrect=1
    if [ "$1" = base ]; then label=$base; else label="the working tree"; fi
    echo "bench-pair: a $2 run (trace $3) with $label is not correct:" >&2
    tail -n 3 "$4" "$4.err" >&2
    return 1
}

k=0
for w in $workloads; do
    echo "bench-pair: $w, $pairs pairs of ${seconds} s runs"
    i=1
    while [ $i -le $pairs ]; do
        if [ $((k % 2)) -eq 0 ]; then order="base tree"; else order="tree base"; fi
        for side in $order; do
            run $side "$w" 0 "$work/$w.$side.$i" || true
        done
        i=$((i + 1))
        k=$((k + 1))
    done
done

# The table, one row per (workload, metric); flagged gets the workloads
# with a worse or unresolved row, and the exit status counts worse rows and
# workloads whose failed share rose.
status=0
awk -v flagged="$work/flagged" '
    function sorted(w, side, m, a,   n, i, j, x) {
        n = cnt[w, side, m]
        for (i = 1; i <= n; i++) {
            x = val[w, side, m, i]
            for (j = i - 1; j >= 1 && a[j] > x; j--) a[j + 1] = a[j]
            a[j + 1] = x
        }
        return n
    }
    function quantile(a, n, q,   pos, lo) {
        pos = q * (n - 1)
        lo = int(pos)
        if (lo + 1 >= n) return a[n]
        return a[lo + 1] + (pos - lo) * (a[lo + 2] - a[lo + 1])
    }
    FNR == NR {
        if ($1 == "workload") wl[++nw] = $2
        if ($1 == "metric") { name[++nm] = $2; better[$2] = $3; bound[$2] = $4 }
        next
    }
    {
        att[$1, $2] += $3
        fail[$1, $2] += $4
        for (f = 5; f <= NF; f++) {
            eq = index($f, "=")
            m = substr($f, 1, eq - 1)
            val[$1, $2, m, ++cnt[$1, $2, m]] = substr($f, eq + 1) + 0
        }
    }
    END {
        printf "%-10s %-17s %11s %11s %11s %11s %8s  %s\n", "workload", "metric", "base_q1", "base_med", "base_q3", "tree_med", "change", "verdict"
        bad = 0
        for (i = 1; i <= nw; i++) {
            w = wl[i]
            for (j = 1; j <= nm; j++) {
                m = name[j]
                nb = sorted(w, "base", m, b)
                nt = sorted(w, "tree", m, t)
                if (nb == 0 || nt == 0) continue
                med = quantile(b, nb, 0.5)
                q1 = quantile(b, nb, 0.25)
                q3 = quantile(b, nb, 0.75)
                tm = quantile(t, nt, 0.5)
                lower = better[m] == "lower"
                worse = lower ? tm - med > bound[m] * med : med - tm > bound[m] * med
                beatsall = lower ? t[nt] < b[1] : t[1] > b[nb]
                if (worse) { v = "worse"; bad++ }
                else if (q3 - q1 > bound[m] * med && !beatsall) v = "unresolved"
                else v = "ok"
                if (v != "ok" && !(w in flag)) { flag[w] = 1; print w > flagged }
                change = med != 0 ? sprintf("%+.1f%%", 100 * (tm - med) / med) : "n/a"
                printf "%-10s %-17s %11.4g %11.4g %11.4g %11.4g %8s  %s\n", w, m, q1, med, q3, tm, change, v
            }
            if (att[w, "base"] > 0 && att[w, "tree"] > 0) {
                rose = fail[w, "tree"] / att[w, "tree"] > fail[w, "base"] / att[w, "base"]
                printf "%-10s %-17s %d/%d against base %d/%d  %s\n", w, "failed", fail[w, "tree"], att[w, "tree"], fail[w, "base"], att[w, "base"], rose ? "worse" : "ok"
                bad += rose
            }
        }
        exit (bad > 0)
    }' "$work/spec" "$work/runs" || status=1

if [ -s "$work/flagged" ]; then
    while read -r w; do
        echo "bench-pair: traced pair on $w"
        run base "$w" 1 "$work/$w.base.traced" || continue
        run tree "$w" 1 "$work/$w.tree.traced" || continue
        "$tree/.bench_build/perfbench" compare "$work/$w.base.traced" "$work/$w.tree.traced" | sed "s/^/  $w: /"
    done <"$work/flagged"
fi
[ "$incorrect" -eq 0 ] || status=1

if [ $status -eq 0 ]; then
    echo "bench-pair: OK against $base (no worse row; no gain is claimed from $pairs pairs)"
else
    echo "bench-pair: FAIL against $base" >&2
fi
exit $status
