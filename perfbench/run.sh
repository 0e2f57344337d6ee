#!/usr/bin/env bash
# Builds the benchmark from the sources of this checkout and runs it.
#
#   bash perfbench/run.sh --workload campaign|matrix|conformance|service \
#       --seed N --seconds S --trace 0|1
#
# Run it from the root of the checkout. Everything it writes (Go build
# cache, binary, temporary stores, span files) stays under the build
# directory, $CARGO_TARGET_DIR when set and .bench_build otherwise.
set -u
here=$(cd "$(dirname "$0")" && pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in /*) ;; *) out=$PWD/$out ;; esac
mkdir -p "$out/go-cache" "$out/go-path" "$out/tmp" || exit 1
export GOCACHE=$out/go-cache GOPATH=$out/go-path GOMODCACHE=$out/go-path/pkg/mod
export GOTMPDIR=$out/tmp TMPDIR=$out/tmp
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off GOENV=off
if ! (cd "$here" && go build -o "$out/perfbench" .) >&2; then
	echo "perfbench: build failed" >&2
	exit 1
fi
# Flush what the build wrote before measuring: its pages' writeback
# otherwise stalls the file-system calls the service set-up makes (set-up
# times after a build were up to ten times those of a second run).
sync -f "$out" 2>/dev/null || sync
exec "$out/perfbench" --out "$out" "$@"
