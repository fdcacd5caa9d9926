#!/usr/bin/env bash
# Builds projfreqd, projfreq-router and the benchmark from this
# checkout, then runs one benchmark workload:
#
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Run it from the repository root. Everything the build and the run
# write (Go build cache, binaries, daemon data and logs, reports) stays
# under .bench_build/ in the checkout.
set -euo pipefail

root=$(pwd)
if [ ! -f "$root/perfbench/go.mod" ]; then
	echo "perfbench: run from the repository root" >&2
	exit 2
fi
out="$root/.bench_build/perfbench"
mkdir -p "$out/bin" "$out/tmp" "$out/home"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly GOWORK=off

# With telemetry on (local mode is the default) the go command starts a
# detached sidecar process the first time it runs under a fresh HOME,
# and that process may outlive this script. Turn it off before any other
# go command runs; `go telemetry off` itself starts no sidecar.
go telemetry off >&2

(cd "$root" && go build -o "$out/bin/" ./cmd/projfreqd ./cmd/projfreq-router) >&2
(cd "$root/perfbench" && go build -o "$out/bin/perfbench" .) >&2

if [ -e "$root/.git" ] && rev=$(git -C "$root" rev-parse HEAD 2>/dev/null); then
	PERFBENCH_COMMIT="git-$rev"
else
	PERFBENCH_COMMIT="src-$(cd "$root" && find cmd internal go.mod -type f -name '*.go' -o -name go.mod | LC_ALL=C sort | xargs sha256sum | sha256sum | cut -c1-16)"
fi
export PERFBENCH_COMMIT

exec "$out/bin/perfbench" -bin "$out/bin" -work "$out/work" "$@"
