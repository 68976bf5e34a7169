#!/usr/bin/env bash
# Builds the benchmark from source into <checkout>/.bench_build and runs it
# from the checkout root; the arguments go to the benchmark unchanged.
# Everything the Go toolchain writes (build cache, telemetry counters) is
# redirected under .bench_build, so a run reads and writes only inside its
# checkout. Outside a checkout of the whole repository the build fails and
# the script exits non-zero without a result.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build"
(
	cd "$here"
	GOCACHE="$build/go-cache" GOPATH="$build/go-path" XDG_CONFIG_HOME="$build/go-config" \
		GOWORK=off GOTOOLCHAIN=local CGO_ENABLED=0 \
		go build -o "$build/stackbench" .
)
cd "$root"
exec "$build/stackbench" "$@"
