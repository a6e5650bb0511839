#!/bin/sh
# mutants.sh checks that each committed mutant is killed by the test it
# names. A mutant is a small patch under testdata/mutants/ that breaks
# the program on purpose; its header carries one line
#
#	Test: <package> <TestName>
#
# For each patch the script extracts a fresh copy of the tree with
# `git archive`, applies the patch and runs the named test there. It
# fails if a patch no longer applies (re-derive it against the current
# code) or if the named test still passes on the mutant (the test has
# gone blunt). A build failure does not count as a kill: the named test
# itself must report FAIL.
#
#	./scripts/mutants.sh            # mutants of HEAD
#	./scripts/mutants.sh <rev>      # mutants of another commit
#
# To check staged, uncommitted work: ./scripts/mutants.sh "$(git stash create)"
set -eu

cd "$(dirname "$0")/.."
rev="${1:-HEAD}"
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

status=0
for patch in testdata/mutants/*.patch; do
	name="$(basename "$patch" .patch)"
	header="$(sed -n 's/^Test: //p' "$patch" | head -n 1)"
	pkg="${header%% *}"
	test="${header#* }"
	if [ -z "$header" ] || [ "$pkg" = "$header" ]; then
		echo "FAIL $name: no 'Test: <package> <TestName>' header" >&2
		status=1
		continue
	fi
	dir="$tmp/$name"
	mkdir -p "$dir"
	git archive "$rev" | tar -x -C "$dir"
	# The ceiling keeps git from taking an enclosing repository for the
	# target of the patch.
	if ! GIT_CEILING_DIRECTORIES="$tmp" git -C "$dir" apply "$(pwd)/$patch"; then
		echo "FAIL $name: patch does not apply to $rev" >&2
		status=1
		continue
	fi
	out="$dir.out"
	if (cd "$dir" && go test -count=1 -run "^${test}\$" "$pkg") >"$out" 2>&1; then
		echo "FAIL $name: mutant survives $pkg $test" >&2
		status=1
	elif grep -q -- "--- FAIL: ${test}[ /]" "$out"; then
		echo "ok   $name: killed by $pkg $test"
	else
		echo "FAIL $name: $pkg $test did not run to a FAIL on the mutant:" >&2
		tail -n 20 "$out" >&2
		status=1
	fi
	rm -rf "$dir"
done
exit "$status"
