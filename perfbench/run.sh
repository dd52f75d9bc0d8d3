#!/usr/bin/env bash
# Builds the benchmark from the source tree it sits in, then runs it:
#
#   bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
#
# Run from anywhere; it works at the root of the source tree. Build output
# goes to stderr. The traced run's span file lands in perfbench/_out/; each
# run gets a private temp directory under it (checkpoint files and the
# runtime's GC event ring), removed on exit.
set -u
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
cd "$root" || exit 2

if [ ! -f dune-project ] || [ ! -d lib ]; then
  echo "perfbench: $root is not a nyx_net source tree" >&2
  exit 2
fi
if ! command -v dune >/dev/null 2>&1 && command -v opam >/dev/null 2>&1; then
  eval "$(opam env 2>/dev/null)"
fi
if ! command -v dune >/dev/null 2>&1; then
  echo "perfbench: dune not found" >&2
  exit 2
fi
# No shared build cache: everything the build writes stays in _build/.
if ! dune build --root . --cache=disabled ./perfbench/perfbench.exe 1>&2; then
  echo "perfbench: build failed" >&2
  exit 2
fi

out="$here/_out"
tmp="$out/tmp.$$"
mkdir -p "$tmp" || exit 2
trap 'rm -rf "$tmp"' EXIT
OCAML_RUNTIME_EVENTS_DIR="$tmp" ./_build/default/perfbench/perfbench.exe \
  --out "$out" --tmp "$tmp" "$@"
