#!/usr/bin/env bash
# Builds the benchmark from source and runs one workload. Run it from the
# repository root:
#
#   bash perfbench/run.sh --workload logistics-ml --seed 1 --seconds 30 --trace 0
#
# The binary, the Go build cache and the traced run's span files go to
# $CARGO_TARGET_DIR (default .bench_build) inside the checkout, so a run
# reads and writes nothing outside it. Without the repository's sources
# next to perfbench/ the build fails and the script exits non-zero.
set -euo pipefail
# Fall back to Go's default install location when go is not on PATH.
command -v go >/dev/null || PATH=$PATH:/usr/local/go/bin
root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in /*) ;; *) out=$root/$out ;; esac
mkdir -p "$out/tmp"
export GOCACHE=$out/gocache GOPATH=$out/gopath GOMODCACHE=$out/gopath/pkg/mod \
	GOTMPDIR=$out/tmp TMPDIR=$out/tmp XDG_CONFIG_HOME=$out/config \
	GOFLAGS= GOPROXY=off GOTOOLCHAIN=local GOWORK=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" --trace-dir "$out/traces" "$@"
