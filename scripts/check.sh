#!/bin/sh
# Tier-1 verification: full build (libraries, executables, examples,
# benches) followed by the complete test suite and the Txcheck smoke
# runs of @check (intset + STAMP configurations per execution mode, each
# under --check; any violated TM guarantee fails the run). Run from the
# repo root.
set -eu
cd "$(dirname "$0")/.."

dune build @all
dune runtest

BENCH=_build/default/bin/asf_bench.exe
dune build @check

# Static transaction analysis: Txstatic over every stock workload model,
# cross-validated against the runtime capacity-abort census. An unsafe
# annotation, restart hazard, release misuse, or a static-fits/
# runtime-abort contradiction fails the build.
dune build @analyze

# Fault-injection soak matrix: every named plan over intset + STAMP,
# each under --check; correctness violations or a watchdog livelock
# (exit 3) fail the build.
dune build @soak

# Open-system serving smoke: Poisson + 2.5x overload + fault-storm
# overload, the latter two each run twice and compared byte-for-byte;
# invariant failures, partition violations or a livelock fail the build.
dune build @serve-smoke

# Linearizability-oracle smoke: Txlin (--check=lin) over clean underload
# + 2.5x overload on every service + a storm overload, plus the
# byte-identity proof that recording/checking never perturbs the run.
# The deeper @lin-soak matrix (storm/stall/spurious x kv + ledger, each
# doubled and compared) exists but is not part of this default gate; run
# `dune build @lin-soak` before touching lib/serve, lib/tm conflict
# handling, or the oracle itself.
dune build @lin-smoke

# Oracle negative fixtures: each of these runs a deliberately broken
# stack (a seeded lost-update fault plan, conflict resolution disabled,
# rollback-on-abort disabled) and MUST exit non-zero with a conclusive
# non-linearizable verdict; a zero exit means the oracle went blind.
echo "lin negative fixture: kv-f / lostupdate plan"
if "$BENCH" serve --service kv-f -t 4 -n 300 --gap 200 --records 4 \
    --faults lostupdate --faults-seed 3 --check=lin > /dev/null 2>&1; then
  echo "check.sh: lin lostupdate fixture FAILED to report a violation" >&2
  exit 1
fi
echo "lin negative fixture: kv-f / --ablate rollback"
if "$BENCH" serve --service kv-f -t 4 -n 300 --gap 200 --records 4 \
    --ablate rollback --check=lin > /dev/null 2>&1; then
  echo "check.sh: lin rollback fixture FAILED to report a violation" >&2
  exit 1
fi
echo "lin negative fixture: kv-f / --ablate resolve"
if "$BENCH" serve --service kv-f -t 4 -n 400 --gap 60 --records 2 \
    --ablate resolve --check=lin > /dev/null 2>&1; then
  echo "check.sh: lin resolve fixture FAILED to report a violation" >&2
  exit 1
fi

# Benchmark-harness smoke: the quick reproduction at --jobs 2, with the
# harness asserting that the parallel pass is bit-identical to the
# sequential one and that the emitted benchmark JSON validates.
dune build @bench-smoke

# Scheduler-throughput smoke: quick bench over the single-thread-heavy
# experiments; prints seq cycles/sec + fusion ratio, asserts the
# seq vs --jobs 2 determinism contract and the minor-words allocation
# budget (see scripts/allocprof.sh for the per-experiment breakdown).
dune build @perf-smoke

# Big-topology smoke: 64-core / 4-socket fig4 slice + serve underload on
# the limited-pointer directory backend, each doubled and compared
# byte-for-byte.
dune build @scale-smoke

# Watchdog negative fixture: under the livelock plan (permanent spurious
# aborts + a hanging serial-lock holder) the run MUST be ended by the
# progress watchdog with a non-zero exit; a zero exit means the watchdog
# never fired.
echo "watchdog negative fixture: intset / livelock plan"
if "$BENCH" intset -s rb-tree -r 64 -u 20 -t 2 --txns 50 \
    --faults=livelock --faults-seed=1 > /dev/null 2>&1; then
  echo "check.sh: watchdog negative fixture FAILED to fire" >&2
  exit 1
fi

# Findings-artifact fixtures: --check-json must carry the finding that
# explains a failed run, written to a scratch directory. The livelock run
# must end with the watchdog's exit 3 and record a "livelock" finding;
# the lost-update run must fail the Txlin oracle (exit 1) and record a
# "non-linearizable" finding.
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
expect_finding() { # expect_finding RC KIND ARGS...: exit RC, F holds KIND
  want_rc=$1 kind=$2
  shift 2
  echo "findings fixture: asf_bench $* --check-json F"
  rm -f "$tmp/findings.json"
  rc=0
  "$BENCH" "$@" --check-json "$tmp/findings.json" > /dev/null 2>&1 || rc=$?
  if [ "$rc" -ne "$want_rc" ]; then
    echo "check.sh: 'asf_bench $*' exited $rc, expected $want_rc" >&2
    exit 1
  fi
  if ! grep -q "\"kind\": \"$kind\"" "$tmp/findings.json"; then
    echo "check.sh: 'asf_bench $*' wrote no \"$kind\" finding" >&2
    exit 1
  fi
}
expect_finding 3 livelock intset -s rb-tree -r 64 -u 20 -t 2 --txns 50 \
  --faults=livelock --faults-seed=1 --check
expect_finding 1 non-linearizable serve --service kv-f -t 4 -n 300 --gap 200 \
  --records 4 --faults lostupdate --faults-seed 3 --check=lin

# Usage-error fixtures: out-of-range and malformed flag values MUST exit
# 2 (README, "Exit codes") with a message, never an uncaught exception.
for args in "intset -t 0" "intset -t 600" "intset -t 64 --sockets 17" \
    "intset -t 8 --sockets 17" "serve --queue-cap 0" "--bogus" \
    "intset -t abc" "intset -r 0" "intset -u 150" "intset --txns=0" \
    "intset --txns=-1" "serve -n 0" "serve --records 0" "serve --load 0" \
    "serve --load=-1" "serve --deadline-us 0" "serve --deadline-us=-3" \
    "stamp --scale=-1" "serve --sweep 0,1" "serve --sweep=-1" \
    "serve --sweep 1e-9" "serve --load 1e-9" "serve --gap 0" \
    "serve --gap=-5" "serve --sweep 1,abc" "serve --sweep nan" \
    "serve --sweep inf" "serve --sweep ," "intset -s foo" "intset -m foo" \
    "stamp -a foo" "serve --service foo" "serve -m foo" "serve --arrival foo" \
    "serve --ablate foo" "repro -e nope" "analyze -w nope" \
    "intset -m seq -t 8" "stamp -m seq -t 4" "serve -m seq -t 4" \
    "intset --check foo" "intset --check=lin" "serve --check foo" \
    "repro -e tab1 --check foo" "intset --faults strom" \
    "repro -e tab1 --faults nope" \
    "intset --trace /dev/null --trace-filter bogus" \
    "intset --trace-filter bogus"; do
  echo "usage-error fixture: asf_bench $args"
  rc=0
  # $args is left unquoted on purpose: it is a word list.
  "$BENCH" $args > /dev/null 2>&1 || rc=$?
  if [ "$rc" -ne 2 ]; then
    echo "check.sh: 'asf_bench $args' exited $rc, expected 2" >&2
    exit 1
  fi
done

echo "check.sh: build, tests, checker smoke, and fault soak runs OK"
