#!/usr/bin/env bash
# Builds the serving benchmark from this checkout and runs it with
# the given arguments (see README.md):
#
#   bash servebench/run.sh --workload point_zipf --seed 1 --seconds 25 --trace 0
#
# Run from the repository root. Every build artefact, the Go build cache
# and the generated inputs stay under .bench_build/servebench.
set -euo pipefail
root=$(pwd)
work="$root/.bench_build/servebench"
mkdir -p "$work/gocache" "$work/tmp" "$work/config" "$work/gopath" "$work/bin"
export GOCACHE="$work/gocache" GOTMPDIR="$work/tmp" TMPDIR="$work/tmp" \
	XDG_CONFIG_HOME="$work/config" GOPATH="$work/gopath" \
	GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
(cd "$root/servebench" && go build -o "$work/bin/servebench" .)
exec "$work/bin/servebench" -root "$root" -work "$work" "$@"
