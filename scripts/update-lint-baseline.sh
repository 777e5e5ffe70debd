#!/bin/sh
# Regenerates scripts/lint-baseline.txt: the sorted list of unsuppressed
# findings over the example corpus that scripts/check.sh treats as accepted.
# Run this only when a new finding has been reviewed and deliberately kept.
#
# The reports come from a plain `analyze`. check.sh separately enforces that
# a warm re-analysis out of a primed fact store (the -watch daemon's code
# path) is byte-identical to cold (-verify-cache), so the baseline holds for
# cached results too.
set -e
cd "$(dirname "$0")/.."

go build -o /tmp/bitc-baseline ./cmd/bitc
for f in examples/progs/*.bitc internal/core/testdata/analyze/*.bitc; do
    /tmp/bitc-baseline analyze "$f" | grep '\[BITC-' | grep -v '^    ' || true
done | sort > scripts/lint-baseline.txt
rm -f /tmp/bitc-baseline
echo "wrote scripts/lint-baseline.txt:"
cat scripts/lint-baseline.txt
