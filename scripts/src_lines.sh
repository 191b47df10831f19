#!/usr/bin/env bash
# Prints the lines added, removed and net under src/ between <base-rev> and the working tree
# (tracked files, staged new files included), from `git diff --numstat`:
#
#   scripts/src_lines.sh <base-rev>
#   src/: +120 -245 net -125 (14031 -> 13906 lines)
#
# Use the parent commit as <base-rev> to report a change's net source line count.
set -euo pipefail

if [[ $# -ne 1 ]]; then
  echo "usage: $0 <base-rev>" >&2
  exit 2
fi
base=$1
cd "$(dirname "$0")/.."

before=$(git archive "$base" src/ | tar -xO | wc -l)
git diff --numstat "$base" -- src/ | awk -v before="$before" '
  { added += $1; removed += $2 }
  END {
    net = added - removed
    printf "src/: +%d -%d net %+d (%d -> %d lines)\n", added, removed, net, before, before + net
  }'
