#!/usr/bin/env bash
# Builds the perfbench command from the sources of this checkout and runs it
# with the given arguments, from the root of the checkout:
#
#   bash perfbench/run.sh --workload chain_hops --seed 1 --seconds 30 --trace 0
#
# The binary, the Go build cache and the traced run's spans all stay under
# .bench_build (or $CARGO_TARGET_DIR when it is set). Nothing is fetched:
# the benchmark needs only the Go toolchain and the repository's sources.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$out"
out="$(cd "$out" && pwd)"
export GOCACHE="$out/go-cache" GOMODCACHE="$out/go-mod" GOPATH="$out/go-path"
export HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" XDG_CACHE_HOME="$out/home/.cache"
export GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOFLAGS=
(cd "$here" && go build -o "$out/perfbench-bin" .)
exec "$out/perfbench-bin" --out "$out/perfbench" "$@"
