#!/usr/bin/env bash
# Builds the benchmark (a module of its own, bench/go.mod) and runs it from the
# root of the checkout, passing every argument through:
#
#   bash bench/run.sh --workload hot-read --seed 1 --seconds 15 --trace 0
#
# Everything the build leaves behind — the binary, Go's build cache — goes to
# .bench_build/ in the checkout; nothing outside the checkout is written.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"

# The benchmark imports the repository's internal packages, so without the
# repository around it there is nothing to build: fail before printing.
if [[ ! -f "$root/go.mod" ]]; then
	echo "bench/run.sh: $root/go.mod not found: the benchmark builds against the repository it sits in" >&2
	exit 1
fi

mkdir -p "$build"
GOCACHE="$build/gocache" GOPATH="$build/gopath" GOFLAGS=-buildvcs=false GOTOOLCHAIN=local XDG_CONFIG_HOME="$build/config" \
	go build -C "$here" -o "$build/hypre-bench" .

cd "$root"
exec "$build/hypre-bench" "$@"
