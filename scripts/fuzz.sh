#!/bin/sh
# fuzz.sh runs every Fuzz* target in the module for a fixed time each
# (default 10s), one target per `go test -fuzz` invocation, as the go
# tool requires. A failing input is written under the package's
# testdata/fuzz and fails the run.
#
#	./scripts/fuzz.sh          # 10s per target
#	./scripts/fuzz.sh 1m       # longer local session
set -eu

cd "$(dirname "$0")/.."
fuzztime="${1:-10s}"

# bench/ is its own module, and dot-directories hold build caches.
grep -rl --include='*_test.go' --exclude-dir=bench --exclude-dir='.[!.]*' '^func Fuzz' . | sort | while read -r file; do
	pkg="./$(dirname "${file#./}")"
	sed -n 's/^func \(Fuzz[A-Za-z0-9_]*\)(.*/\1/p' "$file" | while read -r target; do
		echo "==> $pkg $target ($fuzztime)"
		go test -run '^$' -fuzz "^${target}\$" -fuzztime "$fuzztime" -parallel 2 "$pkg"
	done
done
