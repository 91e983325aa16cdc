#!/bin/sh
# Link audit: lists the code in the src/ libraries that no product binary
# links, and fails unless tools/link_audit.allow covers exactly that list.
#
#   tools/link_audit.sh BUILD_DIR
#
# Products are every executable under examples/, tools/ and bench/, plus the
# perfbench binary. The build is Debug at -O0 with one section per function,
# and the executables are linked with --gc-sections, so a function is in a
# binary exactly when some path from main() reaches it. (At -O1 and above,
# inlined functions vanish from the binaries and would show as unlinked.)
#
# A symbol is "unlinked" when it is a text symbol (nm type T/t/W/w) defined
# in some src/*/lib*.a and in none of the products. Instantiations in std::,
# __gnu_cxx:: and the ABI runtime are dropped. Each allowlist line is one
# extended regex, matched against the demangled name, then "# reason". The
# audit exits 1 when an unlinked symbol matches no allowlist line, or when an
# allowlist line matches no unlinked symbol (so the list cannot go stale).
set -eu

if [ $# -ne 1 ]; then
  echo "usage: $0 BUILD_DIR" >&2
  exit 2
fi
root=$(cd "$(dirname "$0")/.." && pwd)
out=$1
mkdir -p "$out"
out=$(cd "$out" && pwd)
allow="$root/tools/link_audit.allow"
jobs=$(nproc 2>/dev/null || echo 2)

configure() {  # SOURCE_DIR BUILD_DIR
  cmake -S "$1" -B "$2" -G "Unix Makefiles" -DCMAKE_BUILD_TYPE=Debug \
    -DCMAKE_CXX_FLAGS_DEBUG="-O0" \
    -DCMAKE_CXX_FLAGS="-ffunction-sections -fdata-sections" \
    -DCMAKE_EXE_LINKER_FLAGS="-Wl,--gc-sections" >/dev/null
}

configure "$root" "$out/main"
configure "$root/perfbench" "$out/perfbench"
for dir in examples tools bench; do
  make -C "$out/main/$dir" -j"$jobs" --no-print-directory all >/dev/null
done
make -C "$out/perfbench" -j"$jobs" --no-print-directory perfbench >/dev/null

# Mangled text symbols; std::, __gnu_cxx:: and __cxxabiv1:: are dropped by
# their mangled prefix (the nested name comes before any return type there).
text_symbols() {
  nm --defined-only "$@" 2>/dev/null |
    awk 'NF == 3 && $2 ~ /^[TtWw]$/ { print $3 }' |
    grep -Ev '^_ZN?[KVRO]*(S[tabsiod]|9__gnu_cxx|10__cxxabiv1)' |
    sort -u
}

text_symbols "$out"/main/src/*/lib*.a > "$out/lib.syms"
find "$out/main/examples" "$out/main/tools" "$out/main/bench" -maxdepth 1 \
  -type f -perm -u+x > "$out/products"
echo "$out/perfbench/perfbench" >> "$out/products"
# shellcheck disable=SC2046
text_symbols $(cat "$out/products") > "$out/bin.syms"
# A constructor or destructor counts as linked when any of its ABI variants
# is (complete/base object, deleting): a class with a virtual base always
# defines a base-object constructor that only a derived class would call.
awk '
  function key(s) { gsub(/C[1-3]E/, "C_E", s); gsub(/D[0-2]Ev/, "D_Ev", s); return s }
  NR == FNR { linked[key($0)] = 1; next }
  !(key($0) in linked)
' "$out/bin.syms" "$out/lib.syms" | c++filt | sort -u > "$out/unlinked"

status=0
sed -e 's/[[:space:]]*#.*$//' -e '/^[[:space:]]*$/d' "$allow" > "$out/allow.re"
while IFS= read -r re; do
  if ! grep -Eq -- "$re" "$out/unlinked"; then
    echo "stale allowlist line (matches no unlinked symbol): $re"
    status=1
  fi
done < "$out/allow.re"
if [ -s "$out/allow.re" ]; then
  grep -Ev -f "$out/allow.re" "$out/unlinked" > "$out/uncovered" || true
else
  cp "$out/unlinked" "$out/uncovered"
fi
if [ -s "$out/uncovered" ]; then
  echo "linked by no product binary and not on tools/link_audit.allow:"
  sed 's/^/  /' "$out/uncovered"
  status=1
fi
echo "link audit: $(wc -l < "$out/products") products," \
  "$(wc -l < "$out/lib.syms") library symbols," \
  "$(wc -l < "$out/unlinked") unlinked," \
  "$(wc -l < "$out/uncovered") not allowlisted"
exit $status
