#!/usr/bin/env bash
# Builds the benchmark inside the checkout and replaces this shell with it,
# so the benchmark is one process with no child: there is no `go run`
# wrapper to outlive. Build cache, temporary files and work directory all
# stay under benchmark/.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
mkdir -p "$here/.bin" "$here/.work"
export GOCACHE="$here/.bin/gocache" GOMODCACHE="$here/.bin/gomod" GOTMPDIR="$here/.bin"
export GOFLAGS=-buildvcs=false GOTOOLCHAIN=local GOPROXY=off
export GOPATH="${GOPATH:-$here/.bin/gopath}"
(cd "$here" && go build -o .bin/benchmark .)
exec "$here/.bin/benchmark" -bench "$here/../BENCHMARK.json" -workdir "$here/.work" "$@"
