#!/bin/sh
# Build the benchmark from source in this checkout and run it; every
# argument goes to benchmark/run.exe (see benchmark/README.md):
#
#   bash benchmark/run.sh --workload zipf_tenants --seed 1 --seconds 20 --trace 0
#
# The build log goes to stderr, so stdout ends with the result line.
set -e
cd "$(dirname "$0")/.."
command -v dune >/dev/null 2>&1 || eval "$(opam env 2>/dev/null)"
export DUNE_CACHE=disabled
dune build --root . ./benchmark/run.exe 1>&2
exec ./_build/default/benchmark/run.exe "$@"
