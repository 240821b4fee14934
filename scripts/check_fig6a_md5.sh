#!/usr/bin/env bash
# Fails unless `fig6a_response_time` prints the pinned table at 20000 and
# at 150000 requests, both serially and 8-wide: the byte-identical-output
# contract every hot-path and refactoring change is held to. 20k is the
# quick check; at 150k AccessEval migrates, so the FlexLevel column
# differs from LDPC-in-SSD and the pin covers the migration path too.
#
# usage: scripts/check_fig6a_md5.sh   (BUILD_DIR, default build, locates it)
set -euo pipefail

bench="${BUILD_DIR:-build}/bench/fig6a_response_time"
# The BENCH rows go to a scratch file, not over the committed
# BENCH_fig6a.json in the current directory.
rows=$(mktemp)
trap 'rm -f "$rows"' EXIT
md5() { "$bench" "$@" --bench-out "$rows" | md5sum | cut -d' ' -f1; }
check() {
  local requests=$1 pinned=$2 m1 m8
  m1=$(md5 "$requests" --jobs 1)
  m8=$(md5 "$requests" --jobs 8)
  echo "fig6a@$requests md5: jobs1=$m1 jobs8=$m8"
  test "$m1" = "$pinned"
  test "$m8" = "$pinned"
}
check 20000 ecd28ce8c158d11a1bbc069ab2f50daa
check 150000 cad820417737911ed50ea623fc26ffdb
