#!/usr/bin/env bash
# Builds the benchmark from source and runs it; every argument is passed
# on (see README.md). Everything the build writes — the binary, Go's
# build cache, module cache and work directories — stays under
# .bench_build/ at the root of the checkout, and trace files and
# temporary journals under bench/out/.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" GOTOOLCHAIN=local
export XDG_CONFIG_HOME="$build/config"
(cd "$root/bench" && go build -o "$build/ssabench" .)
cd "$root/bench"
exec "$build/ssabench" "$@"
