#!/bin/sh
# Lasso lifecycle lane for wfd_check (driven by ctest, see
# tools/CMakeLists.txt). Exercises the full liveness counterexample
# path on the seeded bug (--problem=consensus-live-bug):
#
#  1. The fair-cycle search finds the wedged-leader lasso, shrinks the
#     stem and loop, saves a replay file with a loop= line, exits 3.
#  2. --replay on that file re-validates the fair cycle (closure,
#     fairness, goal avoidance) by deterministic re-execution, exits 3.
#  3. Corrupting the loop — dropping one decision — must NOT replay as
#     a confirmed lasso (exit 0 with a reason), proving the validator
#     actually checks the cycle rather than rubber-stamping the file.
#  4. The same search split across --budget-states/--save-state/--resume
#     invocations reports the byte-identical stem and loop: the graph
#     snapshot (v5 groot=/gnode=/gedge= lines, channel-granular dl=
#     bits and per-edge senders) round-trips and the post-exhaustion
#     search is deterministic on the merged graph.
#  5. Channel starvation: the replay validator audits communication
#     fairness per directed channel, so a confirmed lasso's loop must
#     serve every continuously pending (sender, receiver) pair — the
#     audit names the starved channel when it rejects.
#  6. --json: every outcome — a found lasso, a confirmed, an unconfirmed
#     and a safety-violating lasso replay, a clean replay, a clean
#     exhaust — prints exactly one JSON object on stdout, with the
#     violation text escaped. The found lasso's object carries the
#     search's stats: its state count is the text report's.
#  7. The campaign refuses a liveness clause (exit 1, with a message):
#     its random walks check no clause, and a stem without its loop
#     would replay as clean.
#  8. Crash-composed lasso: on consensus-crash-live-bug the search
#     composed with --crash=explore finds the crash-wedged lasso
#     (every crash in the stem, none in the loop), shrinks it, and
#     --replay re-validates it; the crash-free liveness search on the
#     same problem must stay silent — the bug lives behind a crash
#     edge only.
#
# Plain POSIX sh, no timing assumptions — legs 1-7 run unchanged under
# the asan/ubsan/tsan presets. Leg 8 explores a ~440k-state tree and
# only runs when the second argument is "crash" (a separate ctest lane,
# kept out of the sanitizer presets like the other heavyweight
# exhausts).
#
# Usage: lasso_check.sh /path/to/wfd_check [crash]
set -u

CHECK=${1:?usage: lasso_check.sh /path/to/wfd_check [crash]}
MODE=${2:-}
DIR=$(mktemp -d) || exit 1
trap 'rm -rf "$DIR"' EXIT

fail() {
  echo "FAIL: $*" >&2
  exit 1
}

SCENARIO="--problem=consensus-live-bug --n=2 --liveness=termination
          --fd=static --reduction=none --depth=12 --max-states=0"

# 1. Find, shrink, save.
$CHECK --exhaustive $SCENARIO --save="$DIR/lasso.wfdr" \
  >"$DIR/found.out" 2>&1
[ $? -eq 3 ] || fail "search did not exit 3: $(cat "$DIR/found.out")"
grep -q "fair cycle avoiding the goal" "$DIR/found.out" ||
  fail "no fair-cycle message: $(cat "$DIR/found.out")"
grep -q "^loop=" "$DIR/lasso.wfdr" || fail "saved file has no loop= line"

# 2. Replay confirms.
$CHECK --replay="$DIR/lasso.wfdr" >"$DIR/replay.out" 2>&1
[ $? -eq 3 ] || fail "replay did not exit 3: $(cat "$DIR/replay.out")"
grep -q "lasso confirmed" "$DIR/replay.out" ||
  fail "replay did not confirm: $(cat "$DIR/replay.out")"

# 3. A corrupted loop must not confirm.
sed 's/^loop=\([0-9]*\),/loop=/' "$DIR/lasso.wfdr" >"$DIR/broken.wfdr"
cmp -s "$DIR/lasso.wfdr" "$DIR/broken.wfdr" &&
  fail "corruption step was a no-op (single-entry loop?)"
$CHECK --replay="$DIR/broken.wfdr" >"$DIR/broken.out" 2>&1
[ $? -eq 0 ] || fail "broken replay did not exit 0: $(cat "$DIR/broken.out")"
grep -q "lasso NOT confirmed" "$DIR/broken.out" ||
  fail "broken lasso was confirmed: $(cat "$DIR/broken.out")"

# 4. Split search reports the identical lasso.
$CHECK --exhaustive $SCENARIO --budget-states=50 \
  --save-state="$DIR/s.wfds" >"$DIR/split1.out" 2>&1
[ $? -eq 4 ] || fail "first installment did not exit 4"
$CHECK --exhaustive $SCENARIO --resume="$DIR/s.wfds" \
  --save="$DIR/lasso2.wfdr" >"$DIR/split2.out" 2>&1
[ $? -eq 3 ] || fail "resumed search did not exit 3: $(cat "$DIR/split2.out")"
grep "^decisions=\|^loop=" "$DIR/lasso.wfdr" >"$DIR/a"
grep "^decisions=\|^loop=" "$DIR/lasso2.wfdr" >"$DIR/b"
cmp -s "$DIR/a" "$DIR/b" ||
  fail "split search found a different lasso: $(cat "$DIR/a" "$DIR/b")"

# 5. Channel starvation. Drop the last stem decision — the step that
# drains the final in-flight message before the quiescent wedge — so
# the loop entry still has a delivery pending, then try every short
# loop over the wedge's menu. A loop that delivers the message cannot
# close the cycle (the network multiset changes), and one that avoids
# it starves the channel; so no candidate may confirm, and at least one
# must be rejected by the per-channel audit naming the starved channel
# (not merely by process fairness — both lambdas are scheduled).
STEM=$(grep "^decisions=" "$DIR/lasso.wfdr" | sed 's/,[0-9]*$//')
CHANNEL_REJECT=0
for LOOP in "0,1" "1,0" "1,2" "2,1" "0,2" "2,0" "0" "1" "2"; do
  sed -e "s/^decisions=.*/$STEM/" -e "s/^loop=.*/loop=$LOOP/" \
    "$DIR/lasso.wfdr" >"$DIR/starve.wfdr"
  $CHECK --replay="$DIR/starve.wfdr" >"$DIR/starve.out" 2>&1
  grep -q "lasso confirmed" "$DIR/starve.out" &&
    fail "a channel-starving loop was confirmed (loop=$LOOP): \
$(cat "$DIR/starve.out")"
  grep -q "unfair: channel .* stays pending" "$DIR/starve.out" &&
    CHANNEL_REJECT=1
done
[ "$CHANNEL_REJECT" -eq 1 ] ||
  fail "no candidate loop was rejected by the per-channel audit"

# 6. --json: one JSON object on stdout for every outcome.
json_one() {
  [ "$(wc -l <"$1")" -eq 1 ] && grep -q '^{.*}$' "$1" ||
    fail "$2: stdout is not one JSON object: $(cat "$1")"
  grep -q "$3" "$1" || fail "$2: no $3 in $(cat "$1")"
}
$CHECK --exhaustive $SCENARIO --json >"$DIR/j_found.out" 2>/dev/null
[ $? -eq 3 ] || fail "--json search did not exit 3"
json_one "$DIR/j_found.out" "found lasso" '"loop":"[0-9]'
json_one "$DIR/j_found.out" "found lasso" '"verdict":"violation"'
want=$(sed -n 's/^explored \([0-9]*\) states.*/\1/p' "$DIR/found.out")
got=$(sed -n 's/.*"states":\([0-9]*\),.*/\1/p' "$DIR/j_found.out")
[ -n "$want" ] && [ "$got" = "$want" ] ||
  fail "found lasso: --json states=$got, text report says $want"
$CHECK --replay="$DIR/lasso.wfdr" --json >"$DIR/j_confirmed.out" 2>/dev/null
[ $? -eq 3 ] || fail "--json lasso replay did not exit 3"
json_one "$DIR/j_confirmed.out" "confirmed lasso" '"confirmed":true'
$CHECK --replay="$DIR/broken.wfdr" --json >"$DIR/j_broken.out" 2>/dev/null
[ $? -eq 0 ] || fail "--json broken lasso replay did not exit 0"
json_one "$DIR/j_broken.out" "unconfirmed lasso" '"confirmed":false,"reason":"'
grep -v "^loop=" "$DIR/lasso.wfdr" >"$DIR/stem.wfdr"
$CHECK --replay="$DIR/stem.wfdr" --json >"$DIR/j_stem.out" 2>/dev/null
[ $? -eq 0 ] || fail "--json clean replay did not exit 0"
json_one "$DIR/j_stem.out" "clean replay" '"verdict":"clean","mode":"replay"'
# The safety search on the liveness bug is clean; its report carries
# the search's timing.
$CHECK --exhaustive --problem=consensus-live-bug --n=2 --fd=static \
  --depth=12 --max-states=0 --json >"$DIR/j_clean.out" 2>/dev/null
[ $? -eq 0 ] || fail "--json clean exhaust did not exit 0"
json_one "$DIR/j_clean.out" "clean exhaust" \
  '"elapsed_ms":[0-9]*,"states_per_sec":[0-9]*,"steps_per_state":[0-9.]*,'
# A lasso file whose stem violates agreement: the lasso replay stops at
# the safety violation and reports it as one JSON object too.
$CHECK --exhaustive --problem=consensus-bug --n=2 --depth=6 \
  --save="$DIR/bug.wfdr" >/dev/null 2>&1
[ $? -eq 3 ] || fail "seeded safety bug not found"
sed 's/^liveness=$/liveness=termination/' "$DIR/bug.wfdr" \
  >"$DIR/bug_lasso.wfdr"
echo "loop=0" >>"$DIR/bug_lasso.wfdr"
$CHECK --replay="$DIR/bug_lasso.wfdr" --json >"$DIR/j_bug.out" 2>/dev/null
[ $? -eq 3 ] || fail "--json safety-violating lasso replay did not exit 3"
json_one "$DIR/j_bug.out" "lasso replay safety violation" \
  '"property":"agreement(decide)","message":"'

# 7. --campaign --liveness is refused before anything runs.
$CHECK --problem=consensus-live-bug --n=2 --campaign --liveness=termination \
  --fd=static --reduction=none --depth=12 --runs=200 --threads=2 \
  >"$DIR/campaign.out" 2>&1
[ $? -eq 1 ] ||
  fail "--campaign --liveness did not exit 1: $(cat "$DIR/campaign.out")"
grep -q "^--liveness requires --exhaustive" "$DIR/campaign.out" ||
  fail "no refusal message: $(cat "$DIR/campaign.out")"

# 8. Crash-composed lasso (only with the "crash" argument): the search
# composed with --crash=explore finds the crash-wedged lasso on
# consensus-crash-live-bug, shrinks it, and --replay re-validates it.
# Replay confirmation also proves every crash sits in the stem: a loop
# containing an adversary move is rejected outright (finite budgets).
if [ "$MODE" = "crash" ]; then
  CRASH_SCENARIO="--problem=consensus-crash-live-bug --n=3
                  --crash=explore --liveness=termination --fd=static
                  --reduction=none --depth=14 --max-states=0
                  --deadline-ms=300000"
  $CHECK --exhaustive $CRASH_SCENARIO --threads=4 \
    --save="$DIR/crash.wfdr" >"$DIR/crash_found.out" 2>&1
  [ $? -eq 3 ] ||
    fail "crash search did not exit 3: $(cat "$DIR/crash_found.out")"
  grep -q "fair cycle avoiding the goal" "$DIR/crash_found.out" ||
    fail "no crash fair-cycle message: $(cat "$DIR/crash_found.out")"
  grep -q "shrunk:" "$DIR/crash_found.out" ||
    fail "crash lasso was not shrunk: $(cat "$DIR/crash_found.out")"
  grep -q "^loop=" "$DIR/crash.wfdr" ||
    fail "saved crash lasso has no loop= line"
  $CHECK --replay="$DIR/crash.wfdr" >"$DIR/crash_replay.out" 2>&1
  [ $? -eq 3 ] ||
    fail "crash replay did not exit 3: $(cat "$DIR/crash_replay.out")"
  grep -q "lasso confirmed" "$DIR/crash_replay.out" ||
    fail "crash replay did not confirm: $(cat "$DIR/crash_replay.out")"
fi

echo "lasso lifecycle OK"
