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

echo "==> scenario gallery (examples/*.json load + build, extends chains included)"
go test ./internal/config -run 'TestScenarioGallery|TestGalleryExtendsChains' -count=1

echo "==> single-node gallery smoke (clustersim -scenario)"
for s in examples/single-node-fan.json examples/weak-fan-tdvfs.json; do
	go run ./cmd/clustersim -scenario "$s" -for 120s >/dev/null
done

echo "==> thermctld fault-drill smoke (thermctld -faults)"
go run ./cmd/thermctld -duration 2m -faults examples/faults/thermctld-drill.json >/dev/null

echo "==> chaos smoke (experiments -only chaos)"
go run ./cmd/experiments -only chaos >/dev/null

echo "==> campaign server smoke (scripts/serversmoke.sh)"
TRACE="$(mktemp -u).tct" ./scripts/serversmoke.sh >/dev/null

echo "OK"
