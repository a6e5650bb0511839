#!/bin/sh
# serversmoke.sh boots the campaign server and drives one campaign
# through the public API end to end: submit the committed example
# scenario with thermq, wait for it to finish, check the store holds
# the job's trace and its job log line and nothing else, pull both
# artifacts, validate the .tct with thermtrace, and check the /metrics
# ledger.
# A clean exit means the service path — REST admission, worker pool,
# trace store and job log, instrumentation, graceful shutdown —
# works outside the Go test harness.
#
# The downloaded trace is left at $TRACE (default server-smoke.tct)
# so CI can upload it as an artifact.
set -eu

cd "$(dirname "$0")/.."

PORT="${PORT:-9631}"
ADDR="http://127.0.0.1:$PORT"
TRACE="${TRACE:-server-smoke.tct}"
DATA="$(mktemp -d)"

echo "==> build thermsrv, thermq, thermtrace"
mkdir -p "$DATA/bin"
go build -o "$DATA/bin/" ./cmd/thermsrv ./cmd/thermq ./cmd/thermtrace

echo "==> boot thermsrv on $ADDR"
"$DATA/bin/thermsrv" -listen "127.0.0.1:$PORT" -dir "$DATA/jobs" &
SRV=$!
cleanup() {
	kill -INT "$SRV" 2>/dev/null || true
	wait "$SRV" 2>/dev/null || true
	rm -rf "$DATA"
}
trap cleanup EXIT INT TERM

i=0
until curl -fsS "$ADDR/healthz" >/dev/null 2>&1; do
	i=$((i + 1))
	if [ "$i" -gt 100 ]; then
		echo "thermsrv never became healthy on $ADDR" >&2
		exit 1
	fi
	sleep 0.1
done

echo "==> submit examples/cluster-sleep.json and wait for terminal state"
out="$("$DATA/bin/thermq" submit -addr "$ADDR" -wait examples/cluster-sleep.json)"
echo "$out"
id="$(echo "$out" | awk 'NR == 1 { print $1 }')"
case "$out" in
*done*) ;;
*)
	echo "job $id did not reach done" >&2
	exit 1
	;;
esac

echo "==> store holds the job's trace and log line, and no directory"
for f in "$id.tct" jobs.jsonl; do
	if [ ! -f "$DATA/jobs/$f" ]; then
		echo "store is missing $f:" >&2
		ls -la "$DATA/jobs" >&2
		exit 1
	fi
done
if [ -n "$(find "$DATA/jobs" -mindepth 1 -type d)" ]; then
	echo "store holds a directory:" >&2
	ls -la "$DATA/jobs" >&2
	exit 1
fi
if ! grep -F "\"id\":\"$id\"" "$DATA/jobs/jobs.jsonl" | grep -Fq '"state":"done"'; then
	echo "job log has no done line for $id:" >&2
	cat "$DATA/jobs/jobs.jsonl" >&2
	exit 1
fi

echo "==> report artifact carries the campaign summary"
"$DATA/bin/thermq" report -addr "$ADDR" "$id" | grep -q '"cluster_avg_w"'

echo "==> trace artifact is a valid .tct ($TRACE)"
"$DATA/bin/thermq" trace -addr "$ADDR" "$id" "$TRACE" >/dev/null
"$DATA/bin/thermtrace" info "$TRACE"

echo "==> /metrics reflect the campaign"
metrics="$(curl -fsS "$ADDR/metrics")"
for want in \
	'thermsrv_jobs_submitted_total 1' \
	'thermsrv_jobs_finished_total{state="done"} 1' \
	'thermsrv_jobs_running 0' \
	'thermsrv_queue_depth 0'; do
	if ! printf '%s\n' "$metrics" | grep -Fxq "$want"; then
		echo "missing metrics line: $want" >&2
		printf '%s\n' "$metrics" | grep '^thermsrv' >&2 || true
		exit 1
	fi
done

echo "OK"
