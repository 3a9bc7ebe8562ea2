#!/bin/sh
# The full verification gate. Run from the repo root:
# - every build target (libraries, executables, examples, benches);
# - `dune runtest`: the unit tests plus every asf_bench gate group of
#   test/gate.ml (@check, @analyze, @soak, @serve-smoke, @lin-smoke,
#   @scale-smoke and @fixtures, each row with its exact exit code);
# - the two benchmark-harness smokes of the root dune file.
set -eu
cd "$(dirname "$0")/.."

dune build @all
dune runtest

# Benchmark-harness smoke: the quick reproduction at --jobs 2, with the
# harness asserting that the parallel pass is bit-identical to the
# sequential one and that the emitted benchmark JSON validates.
dune build @bench-smoke

# Scheduler-throughput smoke: quick bench over the single-thread-heavy
# experiments; prints seq cycles/sec + fusion ratio, asserts the
# seq vs --jobs 2 determinism contract and the minor-words allocation
# budget (see scripts/allocprof.sh for the per-experiment breakdown).
dune build @perf-smoke

echo "check.sh: build, tests, asf_bench gates and benchmark smokes OK"
