#!/usr/bin/env bash
# Build the benchmark from the checkout it sits in, then run it with the
# given arguments (see perfbench/main.ml).  Run from anywhere.
set -euo pipefail
cd "$(dirname "$0")/.."
export DUNE_CACHE=disabled
dune build --root . --display quiet ./perfbench/main.exe 1>&2
exec ./_build/default/perfbench/main.exe "$@"
