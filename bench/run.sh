#!/bin/sh
# run.sh builds the benchmark from source and runs it with the given
# arguments. Run it from the repository root:
#
#	sh bench/run.sh --workload fleet-auto --seed 1 --seconds 15 --trace 0
#	sh bench/run.sh -compare parent.jsonl change.jsonl
#
# The binary, the Go build cache and the scratch files of a run all go
# to .bench_build/ under the current directory, so a run writes nothing
# outside the checkout. The benchmark is its own module (bench/go.mod)
# that replaces thermctl with the enclosing tree; without that tree the
# build fails and so does this script.
set -eu

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp"

GOCACHE="$out/gocache"
GOPATH="$out/gopath"
GOTMPDIR="$out/tmp"
GOENV=off
GOWORK=off
GOTOOLCHAIN=local
export GOCACHE GOPATH GOTMPDIR GOENV GOWORK GOTOOLCHAIN

(cd "$root/bench" && go build -o "$out/thermbench" .)
exec "$out/thermbench" "$@"
