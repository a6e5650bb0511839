#!/bin/sh
# lintannotate.sh runs thermlint and surfaces its findings as GitHub
# Actions error annotations, so each finding appears inline on the
# pull-request diff at its file and line.
#
# Under GitHub Actions (GITHUB_ACTIONS=true) it consumes thermlint's
# -json NDJSON stream and re-emits each finding as
#
#	::error file=F,line=L,col=C::analyzer: message
#
# Anywhere else it falls through to plain thermlint output. Extra
# arguments are passed to thermlint as package patterns (default
# ./...). Exit status is thermlint's: 1 when there are findings.
set -u

cd "$(dirname "$0")/.."

[ $# -eq 0 ] && set -- ./...

if [ "${GITHUB_ACTIONS:-}" != "true" ]; then
	exec go run ./cmd/thermlint "$@"
fi

status=0
out="$(go run ./cmd/thermlint -json "$@")" || status=$?

if [ -n "$out" ]; then
	printf '%s\n' "$out" | awk '
	{
		file = ""; lineno = ""; col = ""; analyzer = ""
		if (match($0, /"file":"[^"]*"/))      file     = substr($0, RSTART + 8,  RLENGTH - 9)
		if (match($0, /"line":[0-9]+/))       lineno   = substr($0, RSTART + 7,  RLENGTH - 7)
		if (match($0, /"col":[0-9]+/))        col      = substr($0, RSTART + 6,  RLENGTH - 6)
		if (match($0, /"analyzer":"[^"]*"/))  analyzer = substr($0, RSTART + 12, RLENGTH - 13)
		# The message is the last field of the object: strip everything
		# up to its opening quote, then its closing quote and brace.
		msg = $0
		sub(/^.*"message":"/, "", msg)
		sub(/"\}$/, "", msg)
		gsub(/\\"/, "\"", msg)
		gsub(/\\\\/, "\\", msg)
		# GitHub annotation escaping.
		gsub(/%/, "%25", msg)
		printf "::error file=%s,line=%s,col=%s::%s: %s\n", file, lineno, col, analyzer, msg
	}'
fi

exit "$status"
