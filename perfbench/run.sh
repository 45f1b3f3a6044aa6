#!/usr/bin/env bash
# Build the library, the CLI and the benchmark from this checkout, then
# run one workload:
#
#   bash perfbench/run.sh --workload fit|krylov|serve --seed N \
#        --seconds S --trace 0|1
#
# The last line of standard output is the JSON result; build output
# goes to standard error.
set -euo pipefail
cd "$(dirname "$0")/.."
if [ ! -f dune-project ] || [ ! -d lib ] || [ ! -d bin ]; then
  echo "perfbench: not a full source checkout (no dune-project, lib/ or bin/)" >&2
  exit 2
fi
# keep every build product inside the checkout
export DUNE_CACHE=disabled
dune build --root . perfbench/main.exe bin/mfti_cli.exe >&2
# one kernel domain per process: the fleet runs three processes beside
# the generator on a box with as few as two CPUs
export MFTI_DOMAINS=1
exec ./_build/default/perfbench/main.exe \
  --cli ./_build/default/bin/mfti_cli.exe "$@"
