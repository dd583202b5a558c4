#!/usr/bin/env bash
# The performance gate CI runs: the canonical benchmark (bench/run.sh) on a
# base commit and on this checkout, three alternating pairs, then `compare`
# on the two sets of runs. Exits with compare's code: 1 on a regression or a
# failed operation. An `unresolved` row is printed and is not fatal; that
# policy is bench/compare.go's and is not decided again here.
#
#   bash scripts/bench-gate.sh [base-ref]   # default: merge-base of origin/main and HEAD
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
base="$(git rev-parse --verify "${1:-$(git merge-base origin/main HEAD)}^{commit}")"
out="$root/.bench_build/gate"   # git-ignored, and dot-prefixed so `go build ./...` skips it
tree="$out/base"
rm -rf "$out"
mkdir -p "$out"
trap 'rm -rf "$tree"' EXIT
# A clone, not `git worktree add`: it leaves nothing in this repository's
# .git to prune if the job is killed before the trap runs.
git clone --quiet --no-checkout "$root" "$tree"
git -C "$tree" checkout --quiet --detach "$base"
if [ ! -f "$tree/bench/run.sh" ]; then
  echo "bench-gate: base $base has no bench/run.sh, so there is nothing to compare against" >&2
  exit 0
fi

run() { # run <tree> <seed> <result file>; exit 1 is a run with failed operations, which compare reports
  bash "$1/bench/run.sh" --workload all --seed "$2" --out "$3" || [ $? -eq 1 ]
}
# base, head, head, base, base, head: neither side always runs first.
run "$tree" 1 "$out/base.jsonl"
run "$root" 1 "$out/head.jsonl"
run "$root" 2 "$out/head.jsonl"
run "$tree" 2 "$out/base.jsonl"
run "$tree" 3 "$out/base.jsonl"
run "$root" 3 "$out/head.jsonl"
bash bench/run.sh compare "$out/base.jsonl" "$out/head.jsonl"
