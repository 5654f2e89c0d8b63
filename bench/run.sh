#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ at the repository
# root and runs it from the root with the given arguments. The build is
# offline and keeps its cache, temporary files and the go command's own
# files inside .bench_build/; a checkout without the repository's
# sources fails here.
set -euo pipefail
root="$(cd "$(dirname "$0")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOPATH="$out/gopath" \
  GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" \
  GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod GOWORK=off
(cd "$root/bench" && go build -buildvcs=false -o "$out/bench" .)
cd "$root"
exec "$out/bench" "$@"
