#!/usr/bin/env bash
# Paired parent/change runs of the declared benchmark and the gate
# arithmetic over them (ROADMAP ground rules (i) and (iv), the
# simplicity-review rules):
#
#   scripts/benchpair.sh PARENT CHANGE [N=10] [WORKLOAD...]
#
# Both revisions' committed files are exported (git archive) into one
# temporary directory — the working tree and .git are never touched —
# and removed on exit. For each workload (default: every one
# BENCHMARK.json declares) it runs N pairs of
# `bash bench/run.sh --workload W --seed S --trace 0` at the
# benchmark's default run length, the same seed S = 900+i on both
# sides of pair i, the parent first in odd pairs and the change first
# in even ones. Every raw last-line JSON is kept, one run per line, in
# ./benchpair-<parent>-<change>.jsonl. For each workload × end-to-end
# metric (name, better, bound from the parent's BENCHMARK.json) it
# prints both medians, Δ%, both IQRs, bound × parent median, wins/N and
# the first verdict that holds:
#   worse         change median worse than the parent's by more than bound × parent median
#   unresolved    change IQR > bound × parent median, unless every change run beats every parent run
#   gain          N ≥ 10, wins ≥ 0.9·N, |Δ| > parent IQR, no more failed operations than the parent
#   within bound  otherwise
# so a gain the spread gate would refuse reads "unresolved". A run that
# prints no JSON line or reports correct=false is counted as bad and
# left out of the statistics; wins count only pairs with two good runs.
set -euo pipefail

usage() { echo "usage: $0 PARENT CHANGE [N=10] [WORKLOAD...]" >&2; exit 2; }
(($# >= 2)) || usage
repo=$(git -C "$(dirname "${BASH_SOURCE[0]}")" rev-parse --show-toplevel)
rev() { git -C "$repo" rev-parse --verify --quiet "$1^{commit}" || { echo "benchpair: unknown revision $1" >&2; exit 2; }; }
parent=$(rev "$1")
change=$(rev "$2")
n=${3:-10}
[[ $n =~ ^[1-9][0-9]*$ ]] || usage
shift $(($# < 3 ? $# : 3))

tmp=$(mktemp -d "${TMPDIR:-/tmp}/benchpair.XXXXXX")
trap 'rm -rf "$tmp"' EXIT
for side in parent change; do
	mkdir "$tmp/$side"
	git -C "$repo" archive "${!side}" | tar -x -C "$tmp/$side"
done
bench=$tmp/parent/BENCHMARK.json
workloads=("$@")
((${#workloads[@]})) || mapfile -t workloads < <(jq -r '.workloads[].name' "$bench")
for w in "${workloads[@]}"; do
	jq -e --arg w "$w" 'any(.workloads[]; .name == $w)' "$bench" >/dev/null ||
		{ echo "benchpair: $w is not a workload of BENCHMARK.json" >&2; exit 2; }
done

out=$PWD/benchpair-${parent:0:7}-${change:0:7}.jsonl
: >"$out"
run() { # side workload pair seed
	local line
	line=$(cd "$tmp/$1" && bash bench/run.sh --workload "$2" --seed "$4" --trace 0 2>>"$tmp/$1.log" | tail -n 1) || true
	line=$(jq -c 'select(type == "object")' 2>/dev/null <<<"$line") || true
	[[ -n $line ]] || line=null
	jq -nc --arg side "$1" --arg w "$2" --argjson pair "$3" --argjson seed "$4" --argjson run "$line" \
		'{side: $side, workload: $w, pair: $pair, seed: $seed, run: $run}' >>"$out"
}
for w in "${workloads[@]}"; do
	for ((i = 1; i <= n; i++)); do
		order=(parent change)
		((i % 2)) || order=(change parent)
		echo "benchpair: $w pair $i/$n seed $((900 + i)), ${order[0]} first" >&2
		for side in "${order[@]}"; do run "$side" "$w" "$i" $((900 + i)); done
	done
done

echo "parent $parent  change $change  N=$n  raw runs: $out"
jq -rn --slurpfile runs "$out" --slurpfile bench "$bench" --argjson n "$n" '
def q($p): sort as $s | ($s | length) as $k
  | if $k == 0 then null
    else (($k - 1) * $p) as $h | ($h | floor) as $i
      | $s[$i] + ($h - $i) * ($s[[$i + 1, $k - 1] | min] - $s[$i]) end;
def beats($dir; $a; $b): if $dir == "higher" then $a > $b else $a < $b end;
def good: .run != null and .run.correct == true;
def ops($s; $f): [$s[] | .run[$f] // 0] | add // 0;
$bench[0].end_to_end as $metrics
| $bench[0].workloads[].name as $w
| ($runs | map(select(.workload == $w))) as $g | select($g | length > 0)
| ($g | map(select(.side == "parent"))) as $P
| ($g | map(select(.side == "change"))) as $C
| ($P | map(select(good))) as $pg | ($C | map(select(good))) as $cg
| "\($w)\tparent: \($pg | length)/\($P | length) good runs, \(ops($P; "failed"))/\(ops($P; "attempted")) ops failed\tchange: \($cg | length)/\($C | length) good runs, \(ops($C; "failed"))/\(ops($C; "attempted")) ops failed",
  ($metrics[] | . as $m
  | [$pg[] | .run.metrics[$m.name].value] as $pv
  | [$cg[] | .run.metrics[$m.name].value] as $cv
  | if ($pv | length) == 0 or ($cv | length) == 0 then "  \($m.name)\tno good runs on one side"
    else
    ($pv | q(0.5)) as $pm | ($cv | q(0.5)) as $cm
    | (($pv | q(0.75)) - ($pv | q(0.25))) as $piqr
    | (($cv | q(0.75)) - ($cv | q(0.25))) as $ciqr
    | ($m.bound * ($pm | fabs)) as $allow
    | ([range(1; $n + 1) as $i
        | [$pg[] | select(.pair == $i)][0] as $p | [$cg[] | select(.pair == $i)][0] as $c
        | select($p != null and $c != null
            and beats($m.better; $c.run.metrics[$m.name].value; $p.run.metrics[$m.name].value))]
       | length) as $wins
    | (if $m.better == "higher" then ($cv | min) > ($pv | max) else ($cv | max) < ($pv | min) end) as $dominates
    | (if beats($m.better; $pm; $cm) and ($cm - $pm | fabs) > $allow then "worse"
       elif $ciqr > $allow and ($dominates | not) then "unresolved"
       elif $n >= 10 and $wins >= 0.9 * $n and beats($m.better; $cm; $pm)
         and ($cm - $pm | fabs) > $piqr and ops($C; "failed") <= ops($P; "failed") then "gain"
       else "within bound" end) as $verdict
    | [$m.name, $pm, $cm, (if $pm == 0 then 0 else 100 * ($cm - $pm) / ($pm | fabs) end),
       $piqr, $ciqr, $allow, "\($wins)/\($n)", $verdict] | @tsv
    end)' | awk -F'\t' '
	NF == 3 { printf "\n%s\n  %s\n  %s\n  %-20s %11s %11s %7s %10s %10s %10s %6s  %s\n", $1, $2, $3,
		"metric", "parent", "change", "delta", "p.IQR", "c.IQR", "bound*p", "wins", "verdict"; next }
	NF == 9 { printf "  %-20s %11.5g %11.5g %+6.1f%% %10.4g %10.4g %10.4g %6s  %s\n", $1, $2, $3, $4, $5, $6, $7, $8, $9; next }
	{ print }'
