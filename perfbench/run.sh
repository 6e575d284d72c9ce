#!/usr/bin/env bash
# Builds the benchmark and approxserve from this checkout's sources, then
# runs one benchmark workload. Run from the repository root:
#
#   bash perfbench/run.sh --workload serve-approx --seed 1 --seconds 30 --trace 0
#
# Build outputs, the Go build cache, Go's temporary and config directories
# and run files stay under .bench_build (CARGO_TARGET_DIR when set), so
# the run writes nothing outside the checkout. The last line of stdout is
# the JSON result.
set -euo pipefail

root=$(pwd)
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in /*) ;; *) out="$root/$out" ;; esac
mkdir -p "$out/perfbench/bin" "$out/gotmp"

export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOWORK=off
(cd "$root/perfbench" && go build -o "$out/perfbench/bin/perfbench" . \
	&& go build -o "$out/perfbench/bin/approxserve" repro/cmd/approxserve) >&2

exec "$out/perfbench/bin/perfbench" \
	-server "$out/perfbench/bin/approxserve" -dir "$out/perfbench" "$@"
