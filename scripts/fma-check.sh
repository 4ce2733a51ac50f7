#!/usr/bin/env bash
# fma-check.sh — fail if the compiler fused a floating-point multiply and
# add anywhere in the repository's own code.
#
# The Go spec lets a compiler compute x*y + z with one rounding instead of
# two, and arm64, ppc64le, s390x and riscv64 do: one fused instruction in
# an area or an error-rate formula changes the last digit of a sweep
# document, so the bytes checked on amd64 would not hold there. An
# explicit float64(x*y) conversion rounds the product and prevents the
# fusion (amd64, which does not fuse, compiles it to the same code).
#
# Run it from the repository root: it cross-compiles both binaries —
# cmd/cqla, which emits every sweep document, and cmd/qcirc, whose `sim`
# runs the state-vector simulator — for the four fusing architectures,
# disassembles each with `go tool objdump` and lists every fused
# instruction in a repro/ symbol with the source line it came from (an
# inlined callee's line, when the product was inlined). It needs nothing
# beyond the Go toolchain and works offline. Exit status 1 means at least
# one was found.
set -euo pipefail

out=$(mktemp -d)
trap 'rm -rf "$out"' EXIT

# fused prints "<symbol> <file:line> <mnemonic>" for every instruction of
# a repro/ symbol whose mnemonic matches the regular expression $2.
fused() {
  go tool objdump "$1" | awk -v re="$2" '
    BEGIN { FS = "\t" }
    /^TEXT / { split($0, w, " "); sym = w[2]; next }
    sym ~ /^repro\// {
      # Fields: file:line, address, encoding, mnemonic and operands.
      for (i = 2; i <= NF; i++) if ($i ~ /^[0-9a-f]+$/ && length($i) >= 8) {
        for (j = i + 1; j <= NF; j++) if ($j != "") {
          split($j, op, " ")
          if (op[1] ~ re) print sym, $1, op[1]
          break
        }
        break
      }
    }'
}

total=0
while read -r arch re; do
  for cmd in cqla qcirc; do
    bin="$out/$cmd-$arch"
    GOARCH=$arch go build -o "$bin" "./cmd/$cmd"
    found=$(fused "$bin" "$re")
    n=0
    if [ -n "$found" ]; then
      n=$(printf '%s\n' "$found" | wc -l)
      printf '%s\n' "$found" | sed "s|^|$arch $cmd: |" >&2
    fi
    echo "$arch: $n fused multiply-add instructions in repro/ symbols of cmd/$cmd"
    total=$((total + n))
  done
done <<'EOF'
arm64 ^FN?M(ADD|SUB)[DS]$
ppc64le ^FN?M(ADD|SUB)S?$
s390x ^(M[AS][DE]BR?|WFN?M[AS][DS]B)$
riscv64 ^FN?M(ADD|SUB)[DS]$
EOF

if [ "$total" -ne 0 ]; then
  echo "fma-check: $total fused instructions; wrap each product in float64(...)" >&2
  exit 1
fi
