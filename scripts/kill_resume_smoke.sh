#!/usr/bin/env bash
# Kill/resume smoke: a checkpointed `swiftdir-fuzz` campaign survives a
# SIGKILL.
#
# Runs a 4,000-seed SwiftDir fuzz campaign uninterrupted, then runs it
# again with `--checkpoint`, SIGKILLs it once its journal holds at least
# KILL_AT unit records, and finishes it with `--resume`. Both the
# baseline and the resumed run must print the recorded digest set, the
# resumed run must have replayed some but not all units from the
# journal (so the kill landed mid-campaign), and the stitched heartbeat
# stream must pass the progress checker (strictly increasing seq across
# the kill gap, one final record).
#
# Usage (from the repository root; builds the bins it needs):
#
#   scripts/kill_resume_smoke.sh [WORKDIR]
set -euo pipefail
cd "$(dirname "$0")/.."

WORK="${1:-ci-kill-resume}"
SEEDS=4000
RECORDED=0xe42eaa28f80e2e4e
KILL_AT=1000
FUZZ=./target/release/swiftdir-fuzz
REPORT=./target/release/swiftdir-report
CKPT="$WORK/run.ckpt"
PROGRESS="$WORK/run.jsonl"

cargo build --release -p swiftdir-bench --bins
rm -rf "$WORK"
mkdir -p "$WORK"

fail() {
    echo "kill_resume_smoke: FAIL — $*" >&2
    exit 1
}

digest_of() { # fuzz stdout -> its digest_set value
    grep -o 'digest_set 0x[0-9a-f]*' <<<"$1" | head -n1 | cut -d' ' -f2
}

records() { # unit records in the journal (every line but the header)
    local lines
    lines=$({ wc -l <"$CKPT"; } 2>/dev/null || echo 0)
    echo $((lines > 0 ? lines - 1 : 0))
}

# Baseline: the campaign uninterrupted.
out=$("$FUZZ" --seeds "$SEEDS" --protocol swiftdir)
echo "$out"
base=$(digest_of "$out")
[ "$base" = "$RECORDED" ] || fail "baseline digest_set ${base:-none} != recorded $RECORDED"

# Kill run: the same campaign, journaled, SIGKILLed once KILL_AT unit
# records are durable (or once it exits on its own, which the resumed
# count below then rejects).
"$FUZZ" --seeds "$SEEDS" --protocol swiftdir --checkpoint "$CKPT" --progress "$PROGRESS" \
    >"$WORK/killed.out" &
pid=$!
while kill -0 "$pid" 2>/dev/null && [ "$(records)" -lt "$KILL_AT" ]; do
    sleep 0.02
done
kill -9 "$pid" 2>/dev/null || true
# An unreaped child that already exited still accepts the signal, so
# tell a kill from an exit by the status `wait` reports (128 + 9).
status=0
wait "$pid" 2>/dev/null || status=$?
if [ "$status" -eq 137 ]; then how="SIGKILLed"; else how="exited with status $status before the kill"; fi
echo "kill_resume_smoke: pid $pid $how with $(records) unit records durable; resuming"

# Resume: skip the journaled units, run the rest, append to both files.
out=$("$FUZZ" --seeds "$SEEDS" --protocol swiftdir --resume "$CKPT" --progress "$PROGRESS")
echo "$out"
resumed=$(sed -n 's/.* fresh, \([0-9]*\) resumed).*/\1/p' <<<"$out" | head -n1)
[ -n "$resumed" ] || fail "resumed run printed no summary line"
if [ "$resumed" -le 0 ] || [ "$resumed" -ge "$SEEDS" ]; then
    fail "kill did not land mid-campaign ($resumed of $SEEDS units resumed)"
fi
got=$(digest_of "$out")
[ "$got" = "$RECORDED" ] || fail "resumed digest_set ${got:-none} != recorded $RECORDED"

# The stitched heartbeat stream (pre-kill records + resumed records +
# final) must satisfy every stream invariant.
"$REPORT" --check-progress "$PROGRESS"

echo "kill_resume_smoke: ok — $resumed of $SEEDS units resumed, digest_set $got matches the recorded baseline"
