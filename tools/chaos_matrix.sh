#!/bin/sh
# Run the scripted survivability matrix (chaos_check matrix) under a
# handful of seed offsets, via the LEDGERDB_CHAOS_SEED override.  Every
# (scenario, seed) pair must end in PASS; the first failing seed stops
# the sweep and its offset reproduces the run byte-identically:
#
#   LEDGERDB_CHAOS_SEED=<offset> dune exec bin/chaos_check.exe matrix
#
#   chaos_matrix.sh <chaos-check-exe> [offset...]
#       default offsets: 0 17 4242
set -eu

[ $# -ge 1 ] || { echo "usage: chaos_matrix.sh <chaos-check-exe> [offset...]" >&2; exit 2; }
exe=$1
shift
[ $# -ge 1 ] || set -- 0 17 4242
# a bare name (as dune passes it) is a file here, not a PATH lookup
case $exe in */*) ;; *) exe=./$exe ;; esac

for offset in "$@"; do
  echo "chaos_matrix: offset $offset"
  status=0
  LEDGERDB_CHAOS_SEED="$offset" "$exe" matrix || status=$?
  if [ "$status" -ne 0 ]; then
    echo "chaos_matrix: offset $offset failed (exit $status); reproduce with" >&2
    echo "  LEDGERDB_CHAOS_SEED=$offset dune exec bin/chaos_check.exe matrix" >&2
    exit "$status"
  fi
done
echo "chaos_matrix: all offsets passed"
