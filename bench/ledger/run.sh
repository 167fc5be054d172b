#!/usr/bin/env bash
# The benchmark's entry point: builds the ledger and the ultraverse daemon
# from this checkout, then runs one ledger workload and ends with the
# one-line JSON result.
#
#   bash bench/ledger/run.sh --workload W --seed N --seconds S --trace 0|1
set -euo pipefail
cd "$(dirname "$0")/../.."
if [ ! -f dune-project ] || [ ! -d lib ] || [ ! -d bin ]; then
  echo "run.sh: $(pwd) is not a checkout of the repository" >&2
  exit 2
fi
dune build --root . --cache=disabled --display quiet \
  ./bench/ledger/ledger.exe ./bin/ultraverse.exe 1>&2
exec ./_build/default/bench/ledger/ledger.exe --summary \
  --ultraverse ./_build/default/bin/ultraverse.exe "$@"
