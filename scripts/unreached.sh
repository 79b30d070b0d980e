#!/usr/bin/env bash
# unreached.sh — list the engine functions no workload, reproduction or
# example ever runs.
#
# Builds the repository benchmark (bench/), cqbench and the five examples
# with -cover -coverpkg=cqbound/..., runs the benchmark's five workloads at
# -quick, cqbench -all and every example under one GOCOVERDIR, merges the
# profiles with go tool covdata, and prints each function at 0.0 % in an
# engine-path package (the root package, relation, eval, shard, batch,
# spill, serve, obs, trace, metrics, plan, pool, lru, database), then
# their count. It is the deletion list of ROADMAP item 18: a function on
# it stays only if a test names the invariant it protects.
#
# Usage: bash scripts/unreached.sh   (about a minute on 2 cores)
#
# Informational: it exits non-zero only when a build or a run fails, never
# because of the count. Binaries and profiles go to a temporary directory
# that is removed on exit; the benchmark's own output lands in bench/out/
# as with bench/run.sh.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
work="$(mktemp -d "${TMPDIR:-/tmp}/unreached.XXXXXX")"
trap 'rm -rf "$work"' EXIT
export GOTOOLCHAIN=local GOWORK=off
cover=(-cover -coverpkg=cqbound/...)
mkdir -p "$work/cov" "$work/bin"
export GOCOVERDIR="$work/cov"

go build -C "$root/bench" "${cover[@]}" -o "$work/bin/bench" .
go build -C "$root" "${cover[@]}" -o "$work/bin/cqbench" ./cmd/cqbench
examples=(quickstart optimizer treewidth dataexchange secretshare)
for ex in "${examples[@]}"; do
    go build -C "$root" "${cover[@]}" -o "$work/bin/$ex" "./examples/$ex"
done

cd "$root"
"$work/bin/bench" -quick > /dev/null
"$work/bin/cqbench" -all > /dev/null
for ex in "${examples[@]}"; do
    "$work/bin/$ex" > /dev/null
done

engine='^cqbound/(internal/(relation|eval|shard|batch|spill|serve|obs|trace|metrics|plan|pool|lru|database)/)?[^/]+\.go:'
go tool covdata func -i "$work/cov" |
    awk -v re="$engine" '$0 ~ re && $NF == "0.0%" { print; n++ } END { printf "unreached: %d engine functions at 0.0%%\n", n }'
