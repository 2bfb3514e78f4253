#!/usr/bin/env bash
# Daemon soak smoke: builds nothing itself — expects an existing build
# directory (default ./build, override with $1) containing
# examples/campus_monitor.
#
# Runs the continuous-operation daemon for ~30 s on an endlessly looped
# replay of a simulated campus trace (paced so epochs rotate on packet
# count several times), sends one SIGHUP mid-run with a config change,
# then SIGTERM, and asserts:
#   * the daemon exits 0 on SIGTERM (graceful drain),
#   * at least 3 epochs rotated (report files on disk, all parseable
#     framing: non-empty, "ZPME" magic),
#   * the SIGHUP reload was acknowledged,
#   * the final health line reports zero dropped records,
#   * a snapshot exists and no write/source errors were logged.
# Then replays the trace once from a FIFO fed by cat — input that cannot
# be mapped, so the replay copies it — and asserts exit 0 and at least
# one epoch file.
set -euo pipefail

BUILD_DIR="${1:-build}"
MONITOR="$BUILD_DIR/examples/campus_monitor"
if [[ ! -x "$MONITOR" ]]; then
  echo "error: $MONITOR not built" >&2
  exit 2
fi

WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT

echo "=== generating soak trace ==="
"$MONITOR" --make-trace "$WORK/soak.pcap" \
  --minutes 5 --meetings 50 --background 0.05 --seed 42

mkdir -p "$WORK/reports"
cat > "$WORK/daemon.conf" <<'EOF'
# applied on SIGHUP: shrink epochs so the reload is visible in rotation
epoch_packets = 60000
EOF

echo "=== starting daemon (30s soak) ==="
"$MONITOR" --daemon --replay "$WORK/soak.pcap" --loops 0 \
  --pace-pps 20000 --epoch-packets 100000 \
  --snapshot "$WORK/snapshot.bin" --report-dir "$WORK/reports" \
  --config "$WORK/daemon.conf" --watchdog-seconds 5 \
  2> "$WORK/daemon.log" &
PID=$!

sleep 12
echo "--- SIGHUP (config reload) ---"
kill -HUP "$PID"
sleep 18
echo "--- SIGTERM (graceful drain) ---"
kill -TERM "$PID"

EXIT=0
wait "$PID" || EXIT=$?
echo "=== daemon log ==="
cat "$WORK/daemon.log"

fail() { echo "SOAK FAIL: $1" >&2; exit 1; }

[[ "$EXIT" -eq 0 ]] || fail "daemon exited $EXIT, expected 0"

EPOCHS=$(ls "$WORK/reports"/epoch-*.bin 2>/dev/null | wc -l)
[[ "$EPOCHS" -ge 3 ]] || fail "only $EPOCHS epochs rotated, expected >= 3"
for f in "$WORK/reports"/epoch-*.bin; do
  [[ -s "$f" ]] || fail "empty epoch report $f"
  [[ "$(head -c 4 "$f")" == "ZPME" ]] || fail "bad magic in $f"
done

grep -q "config reloaded from" "$WORK/daemon.log" \
  || fail "SIGHUP reload not acknowledged"
grep -q "health: 0 dropped records (all clear)" "$WORK/daemon.log" \
  || fail "unexpected health drops"
grep -q "graceful shutdown" "$WORK/daemon.log" \
  || fail "no graceful-shutdown line"
[[ -s "$WORK/snapshot.bin" ]] || fail "no snapshot written"
[[ "$(head -c 4 "$WORK/snapshot.bin")" == "ZPMS" ]] \
  || fail "bad snapshot magic"
! grep -qE "write failed|source error|cannot read config" "$WORK/daemon.log" \
  || fail "daemon logged I/O or source errors"

echo "=== FIFO replay (unmappable input) ==="
mkfifo "$WORK/trace.fifo"
mkdir -p "$WORK/fifo-reports"
cat "$WORK/soak.pcap" > "$WORK/trace.fifo" &
CAT_PID=$!
FIFO_EXIT=0
"$MONITOR" --daemon --replay "$WORK/trace.fifo" --loops 1 \
  --epoch-packets 100000 --report-dir "$WORK/fifo-reports" \
  2> "$WORK/fifo.log" || FIFO_EXIT=$?
wait "$CAT_PID" || true
cat "$WORK/fifo.log"
[[ "$FIFO_EXIT" -eq 0 ]] || fail "FIFO replay exited $FIFO_EXIT, expected 0"
FIFO_EPOCHS=$(ls "$WORK/fifo-reports"/epoch-*.bin 2>/dev/null | wc -l)
[[ "$FIFO_EPOCHS" -ge 1 ]] || fail "FIFO replay wrote no epoch files"

echo "SOAK OK: $EPOCHS epochs, clean reload, clean drain; FIFO replay $FIFO_EPOCHS epochs"
