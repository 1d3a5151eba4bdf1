#!/bin/sh
# Golden smoke test of the XML front end: nwquery over a hand-written
# document (tests/golden/tokenizer.xml) must print exactly
# tests/golden/tokenizer.out, single-stream and sharded over 4 threads
# (frozen bank trained on the same document). The document covers
# attributes, comments, a DOCTYPE internal subset, CDATA, a processing
# instruction, self-closing tags, stray closes, unclosed elements and
# names with '_', '-', digits and UTF-8 bytes.
#
# Usage: golden_test.sh NWQUERY_BIN
set -u

NWQUERY="$1"
cd "$(dirname "$0")/golden" || exit 1

tmpdir="${TMPDIR:-/tmp}/golden_test.$$"
mkdir -p "$tmpdir"
trap 'rm -rf "$tmpdir"' EXIT

fails=0
for args in "--threads 1" "--threads 4 --freeze=tokenizer.xml"; do
  # shellcheck disable=SC2086
  if ! "$NWQUERY" $args tokenizer.nwq tokenizer.xml > "$tmpdir/got.out"; then
    echo "FAIL $args: nwquery exited non-zero"
    fails=$((fails + 1))
  elif ! diff -u tokenizer.out "$tmpdir/got.out"; then
    echo "FAIL $args: output differs from tokenizer.out"
    fails=$((fails + 1))
  else
    echo "ok   $args"
  fi
done

if [ "$fails" -ne 0 ]; then
  echo "golden_test: $fails failure(s)"
  exit 1
fi
echo "golden_test: all checks passed"
