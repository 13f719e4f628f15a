#!/bin/sh
# Production lines and public items per crate, the figures a change's
# line budget is stated in. Production lines: each `crates/*/src` file up
# to the line before its first `#[cfg(test)]` that opens a module, the
# whole file when it has none. Public items: lines matching
# `pub (fn|struct|enum|const|trait|type|static|mod) `. Counted per file,
# so a file without a final newline cannot merge two lines.
#
#   scripts/prod_lines.sh [repo root]    # default: the current directory
set -eu
cd "${1:-.}"
total=0
total_pub=0
for c in crates/*/; do
  prod=0
  for f in $(find "$c/src" -name '*.rs' | sort); do
    n=$(awk '/^[[:space:]]*#\[cfg\(test\)\]/ { at = NR; next }
             at && /^[[:space:]]*(pub(\([a-z]+\))? )?mod / { print at - 1; found = 1; exit }
             { at = 0 }
             END { if (!found) print NR }' "$f")
    prod=$((prod + n))
  done
  pub=$(find "$c/src" -name '*.rs' \
        -exec grep -cE '^\s*pub (fn|struct|enum|const|trait|type|static|mod) ' {} + \
        | awk -F: '{ s += $NF } END { print s + 0 }')
  echo "$(basename "$c") prod=$prod pub=$pub"
  total=$((total + prod))
  total_pub=$((total_pub + pub))
done
echo "total prod=$total pub=$total_pub"
