#!/usr/bin/env bash
# Builds pawnc and the benchmark from this checkout, then runs one
# benchmark run:
#   bash pawnbench/run.sh --workload compile|simulate|serve --seed N \
#     --seconds S --trace 0|1
# The last line of standard output is the JSON result.  Build output goes
# to standard error; the build cache stays inside the checkout.
set -eu
cd "$(dirname "$0")/.."
export DUNE_CACHE=disabled
dune build --root . --display quiet ./pawnbench/bench.exe ./bin/pawnc.exe >&2
exec ./_build/default/pawnbench/bench.exe --pawnc ./_build/default/bin/pawnc.exe "$@"
