#!/bin/sh
# Builds the flow benchmark (perf.exe) from source, then runs it with the
# given arguments. Run from the repository root, e.g.
#   sh bench/perf/run.sh --workload quick --seed 0 --seconds 34 --trace 0
# The build stays inside the checkout (_build/, no shared dune cache).
set -e
if [ ! -f dune-project ] || [ ! -d lib ]; then
  echo "run.sh: no dune-project and lib/ here; run from the repository root" >&2
  exit 2
fi
dune build --root . --cache=disabled --display quiet ./bench/perf/perf.exe >&2
exec ./_build/default/bench/perf/perf.exe "$@"
