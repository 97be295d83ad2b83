#!/usr/bin/env bash
# Builds the Argo benchmark from the sources of this checkout and runs it.
#
#   bash argobench/run.sh --workload lu --seed 1 --seconds 20 --trace 0
#
# Run it from the root of the repository. Every file the build and the run
# write (Go build cache, binary, results, Perfetto traces) goes under
# .bench_build/ in the current directory.
set -euo pipefail

root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export TMPDIR="$out/tmp" GOTMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOWORK=off GOFLAGS=
commit="$(GIT_CEILING_DIRECTORIES="$(dirname "$root")" git -C "$root" rev-parse --short=12 HEAD 2>/dev/null || echo unknown)"
(cd "$root/argobench" && go build -buildvcs=false -ldflags "-X main.commit=$commit" -o "$out/argobench" .) >&2
exec "$out/argobench" "$@"
