#!/bin/sh
# check.sh runs the repository's full verification gate — the same
# steps CI runs (.github/workflows/ci.yml), in the same order, so a
# clean local run means a clean CI run.
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
go test -run '^$' -bench '^Benchmark(NodeStep|ChipStepAuto|FanStep|ThermalStep|ControlRound)$' -benchtime 1x \
	./internal/node ./internal/adt7467 ./internal/fan ./internal/thermal ./internal/core >/dev/null

echo "==> scenario gallery (examples/*.json load + build, extends chains included)"
go test ./internal/config -run 'TestScenarioGallery|TestGalleryExtendsChains' -count=1

echo "==> single-node gallery smoke (clustersim -scenario)"
for s in examples/single-node-fan.json examples/weak-fan-tdvfs.json; do
	go run ./cmd/clustersim -scenario "$s" -for 120s >/dev/null
done

echo "==> thermctld fault-drill smoke (thermctld -faults)"
go run ./cmd/thermctld -duration 2m -faults examples/faults/thermctld-drill.json >/dev/null

echo "==> IPMI smoke (scripts/ipmismoke.sh: race-built thermctld driven by ipmitool)"
./scripts/ipmismoke.sh >/dev/null

echo "==> chaos smoke (experiments -only chaos)"
go run ./cmd/experiments -only chaos >/dev/null

echo "==> report smoke (experiments -markdown -workers 2 matches docs/report.md)"
go run ./cmd/experiments -markdown -workers 2 | diff -u docs/report.md -

echo "==> campaign server smoke (scripts/serversmoke.sh)"
TRACE="$(mktemp -u).tct" ./scripts/serversmoke.sh >/dev/null

echo "OK"
