#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it:
#
#   bash vbench/run.sh --workload strided-write --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in
# the checkout: the binary, the Go build cache and temporary files, and
# the traced runs' span files.
set -euo pipefail

root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/internal" ]]; then
	echo "vbench: $root holds no ccpfs module (go.mod, internal/); run from a full checkout" >&2
	exit 2
fi

out="$root/.bench_build"
mkdir -p "$out/vbench" "$out/gocache" "$out/gotmp" "$out/gopath" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOFLAGS=-buildvcs=false

commit=unknown
if [[ -d "$root/.git" ]] && command -v git >/dev/null; then
	commit=$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)
fi

(cd "$root/vbench" && go build -o "$out/vbench/vbench" .)
cd "$root"
VBENCH_COMMIT=$commit exec "$out/vbench/vbench" "$@"
