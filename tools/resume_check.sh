#!/bin/sh
# Resume-equivalence lane for wfd_check (driven by ctest, see
# tools/CMakeLists.txt). Three claims:
#
#  1. Clean exhaustive scenario (register n=3): a search split across
#     --budget-states / --save-state / --resume invocations must end
#     with the same states, runs, steps and coverage verdict as the
#     single-shot run. The looped run uses --threads=4 against a
#     single-threaded single-shot, so this also pins that snapshots
#     written by a parallel search resume to serial-identical results.
#  2. Seeded-bug scenario: the looped search must find the same
#     violation (property and shrunk decision log) as the single-shot
#     run.
#  3. A snapshot resumed against a different scenario must be rejected
#     with exit 2; a corrupt snapshot must be rejected with exit 1.
#
# Claim 1's single-shot run also reports how its steps split: some were
# re-executed only to rebuild a state (replayed_steps), checkpoint
# restores skipped others (restored_steps), and the rest extended a
# path.
#
# Usage: resume_check.sh /path/to/wfd_check
set -u

CHECK=${1:?usage: resume_check.sh /path/to/wfd_check}
DIR=$(mktemp -d) || exit 1
trap 'rm -rf "$DIR"' EXIT

fail() {
  echo "FAIL: $*" >&2
  exit 1
}

# jstr JSON KEY -> string field value; jnum JSON KEY -> numeric field.
jstr() {
  printf '%s' "$1" | sed -n "s/.*\"$2\":\"\([^\"]*\)\".*/\1/p"
}
jnum() {
  printf '%s' "$1" | sed -n "s/.*\"$2\":\([0-9][0-9]*\)[,}].*/\1/p"
}

# run_loop SNAPSHOT BUDGET ARGS... -> prints the final JSON; exits
# nonzero via fail when the loop misbehaves. Loops while wfd_check
# reports exit 4 (budget exhausted, frontier saved).
run_loop() {
  snap=$1
  budget=$2
  shift 2
  out=$("$CHECK" "$@" --budget-states="$budget" --save-state="$snap") ||
    rc=$?
  rc=${rc:-0}
  i=0
  while [ "$rc" -eq 4 ]; do
    i=$((i + 1))
    [ "$i" -le 200 ] || fail "save/resume loop did not converge"
    rc=0
    out=$("$CHECK" "$@" --budget-states="$budget" --save-state="$snap" \
      --resume="$snap") || rc=$?
  done
  [ "$i" -ge 1 ] || fail "loop never resumed — budget $budget too large?"
  LOOP_RC=$rc
  LOOP_OUT=$out
}

REG_ARGS="--problem=register --n=3 --exhaustive --fd=static --reg-ops=1
          --reg-readers=1 --depth=20 --json"
BUG_ARGS="--problem=consensus-bug --n=3 --exhaustive --depth=30 --json"

# --- 1. clean scenario: split == single-shot -------------------------------
single=$("$CHECK" $REG_ARGS) || fail "single-shot register run exited $?"
rc=
run_loop "$DIR/reg.wfds" 5000 $REG_ARGS --threads=4
[ "$LOOP_RC" -eq 0 ] || fail "register loop exited $LOOP_RC"
for key in states runs steps; do
  a=$(jnum "$single" "$key")
  b=$(jnum "$LOOP_OUT" "$key")
  [ -n "$a" ] && [ "$a" = "$b" ] ||
    fail "register $key: single-shot=$a looped=$b"
done
a=$(jstr "$single" coverage)
b=$(jstr "$LOOP_OUT" coverage)
[ -n "$a" ] && [ "$a" = "$b" ] || fail "register coverage: $a vs $b"
# The replay share is per invocation (not persisted): some but not all
# of a search's steps only rebuild a state. The register problem is
# cloneable, so checkpoint restores skip most of the rest: both shares
# are nonzero and together still leave the steps that extended a path.
a=$(jnum "$single" replayed_steps)
r=$(jnum "$single" restored_steps)
b=$(jnum "$single" steps)
[ -n "$a" ] && [ "$a" -gt 0 ] && [ "$a" -lt "$b" ] ||
  fail "register replayed_steps=$a not within steps=$b"
[ -n "$r" ] && [ "$r" -gt 0 ] && [ $((a + r)) -lt "$b" ] ||
  fail "register restored_steps=$r (+ replayed $a) not within steps=$b"

# --- 2. seeded bug: same violation either way ------------------------------
bug_single=$("$CHECK" $BUG_ARGS)
[ $? -eq 3 ] || fail "single-shot seeded-bug run did not exit 3"
rc=
run_loop "$DIR/bug.wfds" 5 $BUG_ARGS
[ "$LOOP_RC" -eq 3 ] || fail "seeded-bug loop exited $LOOP_RC, want 3"
for key in property decisions; do
  a=$(jstr "$bug_single" "$key")
  b=$(jstr "$LOOP_OUT" "$key")
  [ -n "$a" ] && [ "$a" = "$b" ] ||
    fail "seeded-bug $key: single-shot=$a looped=$b"
done

# --- 3. mismatched / corrupt snapshots are rejected ------------------------
"$CHECK" --problem=consensus --n=3 --exhaustive --depth=20 \
  --resume="$DIR/reg.wfds" >/dev/null 2>&1
[ $? -eq 2 ] || fail "mismatched-scenario resume did not exit 2"
printf 'not a snapshot\n' >"$DIR/corrupt.wfds"
"$CHECK" $REG_ARGS --resume="$DIR/corrupt.wfds" >/dev/null 2>&1
[ $? -eq 1 ] || fail "corrupt snapshot resume did not exit 1"

echo "resume equivalence OK"
