#!/bin/sh
# ipmismoke.sh drives the daemon's out-of-band path end to end: it
# builds thermctld with the race detector, serves the node's BMC over
# TCP while the control loop steps, and talks to it from a separate
# process with cmd/ipmitool — sensor list, manual fan at 80%, fan
# status, back to auto. The daemon then runs out its -duration and must
# exit 0 with no DATA RACE report: a clean run means the one owner lock
# between the step loop and the IPMI server holds under live traffic.
#
# The fan runs on the chip's automatic curve (-fan auto) so that no
# in-band controller rewrites the duty the BMC commanded before
# `fan status` reads it back.
set -eu

cd "$(dirname "$0")/.."

WORK="$(mktemp -d)"
LOG="$WORK/thermctld.log"

echo "==> build thermctld (-race) and ipmitool"
go build -race -o "$WORK/thermctld" ./cmd/thermctld
go build -o "$WORK/ipmitool" ./cmd/ipmitool

echo "==> boot thermctld with the BMC on a free loopback port"
# -pace 20 turns the 5m simulated run into about 15 s of wall time.
# Port 0 lets the kernel pick the port; the daemon prints the bound
# address on its "BMC serving IPMI on" line.
"$WORK/thermctld" -ipmi 127.0.0.1:0 -pace 20 -duration 5m -fan auto >"$LOG" 2>&1 &
DAEMON=$!
cleanup() {
	kill "$DAEMON" 2>/dev/null || true
	wait "$DAEMON" 2>/dev/null || true
	rm -rf "$WORK"
}
trap cleanup EXIT INT TERM

i=0
until grep -q "BMC serving IPMI on" "$LOG"; do
	i=$((i + 1))
	if [ "$i" -gt 100 ]; then
		echo "thermctld never served IPMI" >&2
		cat "$LOG" >&2
		exit 1
	fi
	sleep 0.1
done
HOST="$(sed -n 's/^thermctld: BMC serving IPMI on //p' "$LOG" | head -n 1)"
echo "==> BMC on $HOST"

ipmitool() { "$WORK/ipmitool" -H "$HOST" "$@"; }

echo "==> sensor list: four records"
list="$(ipmitool sensor list)"
echo "$list"
records="$(echo "$list" | awk 'NR > 1' | wc -l)"
if [ "$records" -ne 4 ]; then
	echo "sensor list returned $records records, want 4" >&2
	exit 1
fi

echo "==> fan manual 80, then fan status"
ipmitool fan manual 80
status="$(ipmitool fan status)"
echo "$status"
if [ "$status" != "mode: manual, duty: 80%" ]; then
	echo "fan status after manual 80: got \"$status\"" >&2
	exit 1
fi

echo "==> fan auto"
ipmitool fan auto

echo "==> wait for the daemon to finish its run"
status=0
wait "$DAEMON" || status=$?
cat "$LOG"
if [ "$status" -ne 0 ]; then
	echo "thermctld exited with status $status" >&2
	exit 1
fi
if grep -q "WARNING: DATA RACE" "$LOG"; then
	echo "thermctld reported a data race" >&2
	exit 1
fi

echo "OK"
