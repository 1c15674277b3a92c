#!/usr/bin/env sh
# Non-test source lines per crate: the non-blank, non-comment lines of
# each workspace member's `src/`, leaving out every item marked
# `#[cfg(test)]` (found by brace matching from the attribute to the end
# of the item it marks). String and character literals are blanked
# before braces are counted, so a `"{"` in a format string does not
# unbalance an item.
#
#   scripts/nontest_lines.sh            # one line per crate, then the total
#
# The numbers are comparable across revisions, which is what "non-test
# lines fall" in a simplicity change means here.
set -eu
cd "$(dirname "$0")/.."

count() {
    find "$1" -name '*.rs' -print | LC_ALL=C sort | xargs awk '
        FNR == 1 { skip = 0; depth = 0; opened = 0 }
        {
            line = $0
            sub(/^[ \t]+/, "", line)
            if (!skip && line ~ /^#\[cfg\(test\)\]/) {
                skip = 1; depth = 0; opened = 0
                sub(/^#\[cfg\(test\)\][ \t]*/, "", line)
            }
            if (skip) {
                code = line
                gsub(/\\\\/, "", code)
                gsub(/\\"/, "", code)
                gsub(/"[^"]*"/, "\"\"", code)
                gsub(/'\''[^'\''\\]'\''/, "'\'''\''", code)
                sub(/\/\/.*/, "", code)
                if (code ~ /^#\[/) next
                n = length(code)
                for (i = 1; i <= n; i++) {
                    c = substr(code, i, 1)
                    if (c == "{") { depth++; opened = 1 }
                    else if (c == "}") depth--
                    else if (c == ";" && !opened) { skip = 0; break }
                }
                if (opened && depth <= 0) skip = 0
                next
            }
            if (line == "" || line ~ /^\/\//) next
            lines++
        }
        END { print lines + 0 }
    '
}

total=0
for dir in src crates/*/src vendor/*/src; do
    [ -d "$dir" ] || continue
    crate=$(dirname "$dir")
    [ "$crate" = "." ] && crate="decor"
    n=$(count "$dir")
    total=$((total + n))
    printf '%-22s %6d\n' "$crate" "$n"
done
printf '%-22s %6d\n' "workspace" "$total"
