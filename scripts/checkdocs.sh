#!/bin/sh
# checkdocs.sh — fail when any package lacks a doc comment.
#
# The equivalent of revive's package-comments rule without a dependency:
# every package directory must contain at least one .go file opening with a
# "// Package <name> ..." comment (or "// Command <name> ..." for mains).
# This keeps the doc.go files of the execution stack — shard, eval, plan,
# relation, spill (the pin/unpin and eviction contracts), batch (the
# pull-based iterator and batch-validity contracts), trace (the nil-span
# inertness contract), metrics (the wait-free observation contract) —
# enforced rather than aspirational. New packages are picked up
# automatically via go list.
#
# It also caps CHANGES.md: every entry from PR 26 on (a line starting
# "PR <n>:" plus any lines up to the next entry) must fit in 1500 bytes.
# README.md and ARCHITECTURE.md may not grow past their byte caps below;
# a change that shrinks either should lower its cap, so the budget only
# moves down.
set -e
fail=0
# The execution-stack packages must keep a dedicated doc.go: their package
# comments carry API contracts (batch validity windows, spill pin rules),
# not just one-liners, and a dedicated file keeps them findable.
for doc in internal/batch/doc.go internal/shard/doc.go internal/eval/doc.go internal/spill/doc.go internal/trace/doc.go internal/metrics/doc.go internal/serve/doc.go internal/obs/doc.go; do
    if [ ! -f "$doc" ]; then
        echo "checkdocs: missing $doc (execution-stack contract doc)" >&2
        fail=1
    fi
done
for dir in $(go list -f '{{.Dir}}' ./...); do
    if ! grep -q -E '^// (Package|Command) ' "$dir"/*.go 2>/dev/null; then
        echo "checkdocs: missing package comment in $dir" >&2
        fail=1
    fi
done
if [ "$fail" -ne 0 ]; then
    echo "checkdocs: add a '// Package <name> ...' doc comment (see doc.go files for examples)" >&2
    exit 1
fi
for cap in README.md:32222 ARCHITECTURE.md:31453; do
    doc=${cap%:*}
    max=${cap#*:}
    size=$(wc -c < "$doc")
    if [ "$size" -gt "$max" ]; then
        echo "checkdocs: $doc is $size bytes; the cap is $max" >&2
        fail=1
    fi
done
if [ "$fail" -ne 0 ]; then
    exit 1
fi
if ! LC_ALL=C awk '
    function check() {
        if (pr >= 26 && size > 1500) {
            printf "checkdocs: CHANGES.md entry for PR %d (line %d) is %d bytes; the cap is 1500\n", pr, line, size > "/dev/stderr"
            bad = 1
        }
    }
    /^PR [0-9]+:/ { check(); pr = $2 + 0; line = NR; size = length($0); next }
    { size += 1 + length($0) }
    END { check(); exit bad }
' CHANGES.md; then
    exit 1
fi
echo "checkdocs: every package has a doc comment; README.md, ARCHITECTURE.md and CHANGES.md entries fit their caps"
