#!/usr/bin/env bash
# Builds the benchmark and the commands it drives (pipegen, pipeserve,
# pipeeval) from this checkout's source, then runs it with the given
# arguments. Run it from the root of the checkout:
#
#   bash perfbench/run.sh --workload read-mix --seed 1 --seconds 20 --trace 0
#
# Build outputs, the Go build cache, generated data and result files all
# stay under $CARGO_TARGET_DIR (default .bench_build) inside the checkout.
set -euo pipefail

for src in go.mod cmd/pipegen cmd/pipeserve cmd/pipeeval internal; do
	if [ ! -e "$src" ]; then
		echo "perfbench: $src not found; run this from the root of a checkout of the repository" >&2
		exit 1
	fi
done

out=${CARGO_TARGET_DIR:-.bench_build}
case "$out" in
/*) ;;
*) out="$PWD/$out" ;;
esac
mkdir -p "$out/tmp" "$out/config/go/telemetry"
# Keep every file the go command writes (build cache, module cache, its
# config) inside the checkout. Telemetry is off, because with it on the go
# command starts a detached child process that can outlive this script.
printf 'off\n' >"$out/config/go/telemetry/mode"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOFLAGS=-buildvcs=false

go build -o "$out/bin/" ./cmd/pipegen ./cmd/pipeserve ./cmd/pipeeval ./perfbench >&2
exec "$out/bin/perfbench" -bin "$out/bin" -work "$out/work" "$@"
