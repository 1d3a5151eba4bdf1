#!/bin/sh
# `nwquery --threads N` without --freeze files explores the shared bank
# before serving. On the first 8 templates of the standard bank that
# exploration must finish quickly (CMake runs this test under a TIMEOUT)
# and the sharded output must be byte-identical to the single-stream run.
#
# Usage: threads_explore_test.sh NWQUERY_BIN
set -u

NWQUERY="$1"

tmpdir="${TMPDIR:-/tmp}/threads_explore_test.$$"
mkdir -p "$tmpdir"
trap 'rm -rf "$tmpdir"' EXIT
# The standard bank's eight templates over rotating names a..h.
printf '/a\n//c\n/c/d\n/d//e\ne then f\ndepth >= 7\n//g/*/h\nnot //h\n' \
  > "$tmpdir/q.nwq"
# Malformed on purpose: pending calls and pending returns.
printf '</h><c><d><e></g><h><a>x</a></c><g><b><h>' > "$tmpdir/bad.xml"

fails=0
for format in xml json trace; do
  args="--opt all --format $format --random 24 --positions 3000 --depth 12"
  files=""
  if [ "$format" = xml ]; then files="$tmpdir/bad.xml"; fi
  # shellcheck disable=SC2086
  if ! "$NWQUERY" $args "$tmpdir/q.nwq" $files > "$tmpdir/one.out"; then
    echo "FAIL $format: single-stream run exited non-zero"
    fails=$((fails + 1))
    continue
  fi
  # shellcheck disable=SC2086
  if ! "$NWQUERY" $args --threads 4 "$tmpdir/q.nwq" $files \
      > "$tmpdir/four.out"; then
    echo "FAIL $format: --threads 4 run exited non-zero"
    fails=$((fails + 1))
    continue
  fi
  if ! cmp -s "$tmpdir/one.out" "$tmpdir/four.out"; then
    echo "FAIL $format: --threads 4 output differs from single-stream"
    diff "$tmpdir/one.out" "$tmpdir/four.out" | head -10
    fails=$((fails + 1))
    continue
  fi
  if [ ! -s "$tmpdir/one.out" ]; then
    echo "FAIL $format: no match lines to compare"
    fails=$((fails + 1))
    continue
  fi
  echo "ok   $format ($(wc -l < "$tmpdir/one.out") match lines)"
done

if [ "$fails" -ne 0 ]; then
  echo "$fails check(s) failed"
  exit 1
fi
