#!/bin/sh
# check.sh runs the repository's verification gate: the steps of CI's
# test, mutants and coverage jobs (.github/workflows/ci.yml), in the
# same order. What stays CI-only: the fuzz job (run it locally with
# ./scripts/fuzz.sh), the bench smoke and the gates that read
# BENCH_cluster.json (./scripts/bench.sh), the chaos-trace artifact and
# the artifact uploads.
set -eu

cd "$(dirname "$0")/.."

echo "==> go build ./..."
go build ./...

echo "==> go vet ./..."
go vet ./...

echo "==> gofmt -l ."
unformatted="$(gofmt -l .)"
if [ -n "$unformatted" ]; then
	echo "gofmt needed on:" >&2
	echo "$unformatted" >&2
	exit 1
fi

echo "==> thermlint ./..."
# Plain output locally; inline ::error annotations under GitHub Actions.
./scripts/lintannotate.sh ./...

if command -v shellcheck >/dev/null 2>&1; then
	echo "==> shellcheck scripts/*.sh"
	shellcheck scripts/*.sh
else
	echo "==> shellcheck not installed; skipping script lint"
fi

echo "==> go test -race ./..."
go test -race ./...

echo "==> device microbenchmarks (one iteration each, so they cannot rot)"
go test -run '^$' -bench '^Benchmark(NodeStep|NodeStepFleetAuto|ChipStepAuto|ChipStepManual|FanStep|ThermalStep|SensorConvert|ControlRound)$' -benchtime 1x \
	./internal/node ./internal/adt7467 ./internal/fan ./internal/thermal ./internal/sensor ./internal/core >/dev/null
# The PID ablation (~5 ms) is the only caller of the PID baseline.
go test -run '^$' -bench '^BenchmarkAblateVsPID$' -benchtime 1x . >/dev/null
# EngineStep steps controlled clusters through idle and control steps,
# the node-local sweep's due-time path.
go test -run '^$' -bench '^BenchmarkEngineStep$' -benchtime 1x ./internal/cluster >/dev/null
# JobRoundTrip runs one campaign-server job through the API and fails
# unless the job creates exactly one file in the store, its trace.
go test -run '^$' -bench '^BenchmarkJobRoundTrip$' -benchtime 1x ./internal/server >/dev/null

echo "==> scenario gallery (examples/*.json load + build, extends chains included)"
go test ./internal/config -run 'TestScenarioGallery|TestGalleryExtendsChains' -count=1

echo "==> single-node gallery smoke (clustersim -scenario)"
for s in examples/single-node-fan.json examples/weak-fan-tdvfs.json; do
	go run ./cmd/clustersim -scenario "$s" -for 120s >/dev/null
done

echo "==> fan-failure example (output matches examples/fan-failure/output.txt)"
go run ./examples/fan-failure | diff -u examples/fan-failure/output.txt -

echo "==> examples (output matches each examples/<name>/output.txt)"
for e in quickstart cluster-hybrid cpuburn-fan datacenter-policy; do
	go run "./examples/$e" | diff -u "examples/$e/output.txt" -
done

echo "==> thermctld fault-drill (output matches examples/faults/thermctld-drill.out)"
go run ./cmd/thermctld -duration 2m -faults examples/faults/thermctld-drill.json |
	diff -u examples/faults/thermctld-drill.out -

echo "==> IPMI smoke (scripts/ipmismoke.sh: race-built thermctld driven by ipmitool)"
./scripts/ipmismoke.sh >/dev/null

echo "==> chaos smoke (experiments -only chaos)"
go run ./cmd/experiments -only chaos >/dev/null

echo "==> report smoke (experiments -markdown -workers 2 matches docs/report.md)"
go run ./cmd/experiments -markdown -workers 2 | diff -u docs/report.md -

echo "==> trace parity (clustersim -trace identical at -workers 1 and 2)"
# The sampler fills each frame on the step pool; the file on disk must
# not depend on the worker count.
tmp="$(mktemp -d)"
go run ./cmd/clustersim -nodes 64 -for 60s -workers 1 -trace "$tmp/w1.tct" >/dev/null
go run ./cmd/clustersim -nodes 64 -for 60s -workers 2 -trace "$tmp/w2.tct" >/dev/null
cmp "$tmp/w1.tct" "$tmp/w2.tct"
rm -rf "$tmp"

echo "==> campaign server smoke (scripts/serversmoke.sh)"
TRACE="$(mktemp -u).tct" ./scripts/serversmoke.sh >/dev/null

echo "==> mutants (scripts/mutants.sh: each is killed by its named test)"
# mutants.sh reads committed files; git stash create snapshots the
# tracked changes of the working tree (empty when it is clean).
rev="$(git stash create)"
./scripts/mutants.sh "${rev:-HEAD}"

echo "==> coverage (scripts/coverage.sh: total above the floor)"
profile="$(mktemp)"
PROFILE="$profile" ./scripts/coverage.sh
rm -f "$profile"

echo "OK"
