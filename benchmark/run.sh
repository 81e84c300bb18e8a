#!/usr/bin/env bash
# Builds replibench from source and runs it with the given arguments, e.g.
#   bash benchmark/run.sh --workload lazy32-bulk --seed 11 --seconds 30 --trace 0
#   bash benchmark/run.sh run --reps 3
# Run from the repository root; everything is built and written inside it.
set -euo pipefail
cd "$(dirname "$0")/.."
# The shared dune cache lives outside the tree; keep the build local.
export DUNE_CACHE=disabled
command -v dune >/dev/null 2>&1 || eval "$(opam env 2>/dev/null)"
dune build --root . --display quiet ./benchmark/replibench.exe >&2
exec ./_build/default/benchmark/replibench.exe "$@"
