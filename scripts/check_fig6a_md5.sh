#!/usr/bin/env bash
# Fails unless `fig6a_response_time 20000` prints the pinned table, both
# serially and 8-wide: the byte-identical-output contract every hot-path
# and refactoring change is held to.
#
# usage: scripts/check_fig6a_md5.sh   (BUILD_DIR, default build, locates it)
set -euo pipefail

pinned=ecd28ce8c158d11a1bbc069ab2f50daa
bench="${BUILD_DIR:-build}/bench/fig6a_response_time"
m1=$("$bench" 20000 --jobs 1 | md5sum | cut -d' ' -f1)
m8=$("$bench" 20000 --jobs 8 | md5sum | cut -d' ' -f1)
echo "fig6a@20k md5: jobs1=$m1 jobs8=$m8"
test "$m1" = "$pinned"
test "$m8" = "$pinned"
