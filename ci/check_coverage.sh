#!/usr/bin/env sh
# check_coverage.sh PROFILE [THRESHOLD]
#
# Fails (exit 1) when the total statement coverage of the given Go
# cover profile is below THRESHOLD percent (default 80). Used by the
# CI coverage job on the pooled profile of the root tiresias package,
# the detection-quality packages (internal/scenario, internal/gen,
# internal/evalx) and the engine and checkpoint codec (internal/algo,
# internal/checkpoint).
#
# Generated code and testdata fixtures are not coverage targets:
# their profile lines are stripped before totaling, so analyzer
# fixtures under testdata/src and *.pb.go / *_generated.go files
# never dilute (or pad) the gate.
set -eu

profile="${1:?usage: check_coverage.sh PROFILE [THRESHOLD]}"
threshold="${2:-80}"

filtered="$(mktemp)"
trap 'rm -f "$filtered"' EXIT
awk 'NR == 1 || ($0 !~ /\/testdata\// && $0 !~ /\.pb\.go:/ && $0 !~ /_generated\.go:/ && $0 !~ /zz_generated/)' \
    "$profile" > "$filtered"
profile="$filtered"

total="$(go tool cover -func="$profile" | awk '/^total:/ {gsub(/%/, "", $3); print $3}')"
if [ -z "$total" ]; then
    echo "check_coverage: no total line in $profile" >&2
    exit 2
fi

echo "total statement coverage: ${total}% (threshold ${threshold}%)"
awk -v t="$total" -v min="$threshold" 'BEGIN { exit (t + 0 < min + 0) ? 1 : 0 }' || {
    echo "check_coverage: ${total}% is below the ${threshold}% threshold" >&2
    exit 1
}
