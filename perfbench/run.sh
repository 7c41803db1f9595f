#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it.
#
#   bash perfbench/run.sh --workload range|churn|serve --seed N --seconds S --trace 0|1
#
# Run it from the repository root. Build cache, binary and span files stay
# under .perfbench/ in the checkout. A failed build exits non-zero before
# any result line is printed.
set -euo pipefail
root=$(pwd)
out="$root/.perfbench"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOTOOLCHAIN=local GOWORK=off GOFLAGS=
(cd "$root/perfbench" && go build -buildvcs=false -o "$out/perfbench" .)
exec "$out/perfbench" -out "$out" "$@"
