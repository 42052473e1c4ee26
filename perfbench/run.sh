#!/usr/bin/env bash
# Builds the benchmark and the dmfserve binary it drives from the sources
# of the checkout it is run in, then runs it. Run from the checkout root:
#
#   bash perfbench/run.sh --workload serve --seed 1 --seconds 15 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in the
# checkout, the Go build cache included.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/dmfserve" || ! -f "$root/perfbench/go.mod" ]]; then
	echo "perfbench: run from the root of a checkout of the repository" >&2
	exit 2
fi
mkdir -p "$out/bin" "$out/tmp" "$out/work"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" GOTOOLCHAIN=local GOENV=off GOFLAGS=
go build -o "$out/bin/dmfserve" ./cmd/dmfserve
(cd perfbench && go build -o "$out/bin/perfbench" .)
exec "$out/bin/perfbench" -dmfserve "$out/bin/dmfserve" -workdir "$out/work" "$@"
