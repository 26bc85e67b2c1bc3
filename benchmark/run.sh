#!/usr/bin/env bash
# Build the benchmark from source in this checkout, then run it with the
# arguments given (see benchmark/README.md). The dune cache is disabled
# so the build writes nothing outside the checkout.
set -euo pipefail
export DUNE_CACHE=disabled
dune build --root . ./benchmark/main.exe 1>&2
exec ./_build/default/benchmark/main.exe "$@"
