#!/bin/sh
# Prints the 1-based index of the column named HEADER in the first line
# of the CSV file FILE, so checks read columns by name rather than by
# position. Exits non-zero when the header is missing.
#
# Usage: csv_col.sh FILE HEADER
set -eu
[ $# -eq 2 ] || { echo "usage: $0 FILE HEADER" >&2; exit 2; }
awk -F, -v name="$2" '
  NR == 1 { for (i = 1; i <= NF; i++) if ($i == name) { print i; found = 1; exit } exit }
  END { if (!found) { print "no column named \"" name "\"" > "/dev/stderr"; exit 1 } }' "$1"
