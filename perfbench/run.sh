#!/usr/bin/env bash
# Builds the end-to-end benchmark from source and runs it with the given
# arguments (--workload, --seed, --seconds, --trace). Run it from the root
# of the repository. Every build product, the generated corpus and the
# span files stay under .bench_build/ at that root.
set -euo pipefail
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
build="$(pwd)/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath"
export GOTOOLCHAIN=local GOPROXY=off
# The go command keeps its telemetry counters under the config directory.
export XDG_CONFIG_HOME="$build/config"
(cd "$here" && go build -o "$build/perfbench" .) 1>&2
exec "$build/perfbench" "$@"
