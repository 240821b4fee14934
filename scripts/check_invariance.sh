#!/usr/bin/env bash
# Fails unless a bench prints byte-identical stdout at --jobs 1 and --jobs 8.
#
# usage: scripts/check_invariance.sh [--serial-out FLAG FILE]...
#                                    [--diff-out FLAG FILE]... BENCH [ARGS...]
#
# Runs `build/bench/BENCH ARGS --jobs 1 > serial.txt` and the same with
# `--jobs 8 > parallel.txt` in the current directory, then diffs the two.
# A bench that exits nonzero (its own verdict) fails the check as well.
#   --serial-out FLAG FILE  passes FLAG FILE to the serial run only: an
#                           artifact with wall-clock fields (--bench-out)
#                           that legitimately differs between runs.
#   --diff-out FLAG FILE    passes FLAG FILE to the serial run and
#                           FLAG FILE.jobs8 to the parallel run, and diffs
#                           the two files as well.
# BUILD_DIR (default: build) locates the bench binaries.
set -euo pipefail

serial_extra=()
parallel_extra=()
diff_files=()
while [[ $# -gt 0 ]]; do
  case "$1" in
    --serial-out)
      serial_extra+=("$2" "$3")
      shift 3
      ;;
    --diff-out)
      serial_extra+=("$2" "$3")
      parallel_extra+=("$2" "$3.jobs8")
      diff_files+=("$3")
      shift 3
      ;;
    *) break ;;
  esac
done
if [[ $# -lt 1 ]]; then
  echo "usage: $0 [--serial-out FLAG FILE]... [--diff-out FLAG FILE]..." \
    "BENCH [ARGS...]" >&2
  exit 2
fi
bench="${BUILD_DIR:-build}/bench/$1"
shift

"$bench" "$@" --jobs 1 "${serial_extra[@]}" > serial.txt
"$bench" "$@" --jobs 8 "${parallel_extra[@]}" > parallel.txt
diff serial.txt parallel.txt
for file in "${diff_files[@]}"; do
  diff "$file" "$file.jobs8"
done
