#!/bin/sh
# The full verification gate. Run from the repo root:
# - a grep: library code charges the engine it holds;
# - every build target (libraries, executables, examples, benches);
# - a disassembly guard on the per-access path of the benchmark binary;
# - `dune runtest`: the unit tests plus every asf_bench gate group of
#   test/gate.ml (@check, @analyze, @soak, @serve-smoke, @lin-smoke,
#   @scale-smoke and @fixtures, each row with its exact exit code);
# - Txstatic's artifact against the committed ANALYZE_asf.json;
# - the two benchmark-harness smokes of the root dune file, and the
#   quick reproduction's CSVs against the committed results/;
# - a dev-profile build whose simulated output must match the default
#   (release) build's byte for byte.
set -eu
cd "$(dirname "$0")/.."

# Library code outside lib/engine/ holds its engine (its Memsys's, its
# Asf.t's, its system's) and charges it with Engine.elapse_on. The
# ambient Engine.elapse looks the running engine up in Domain.DLS on
# every call; it is for the benchmark's replay and the tests.
if grep -rnE 'Engine\.elapse([^_]|$)' lib --include='*.ml' | grep -v '^lib/engine/'; then
  echo "check.sh: lib/ calls the ambient Engine.elapse above; charge the engine the caller holds with Engine.elapse_on" >&2
  exit 1
fi

dune build @all

# The per-access path indexes its three arrays of caches without a
# float-array test (Cache.t is a private record, not an abstract type)
# and answers a hit in the L1 TLB's most-recent way with the int 0
# instead of matching on a static Tlb outcome block. Count both in the
# disassembly of the benchmark binary's Memsys.load_inner and
# store_inner: a `cmp $0xfe` and a reference to a camlAsf_cache__Tlb.N
# block.
if command -v objdump > /dev/null 2>&1; then
  objdump -d --no-show-raw-insn _build/default/bench/perf/perf.exe | awk '
    /^[0-9a-f]+ <camlAsf_cache__Memsys\.(load|store)_inner_[0-9]+>:$/ {
      f = $2; found++; fe[f] = 0; tlb[f] = 0; next }
    /^[0-9a-f]+ </ { f = "" }
    f != "" && /cmp +\$0xfe,/ { fe[f]++ }
    f != "" && /<camlAsf_cache__Tlb\.[0-9]+>/ { tlb[f]++ }
    END {
      bad = (found != 2)
      for (g in fe) {
        printf "check.sh: %s float-array tests %d, Tlb static blocks %d\n", g, fe[g], tlb[g]
        if (fe[g] + tlb[g] > 0) bad = 1
      }
      if (found != 2) print "check.sh: Memsys.load_inner/store_inner not found in perf.exe"
      exit bad
    }' || {
    echo "check.sh: the per-access path holds a float-array test or a Tlb static-block read (see above)" >&2
    exit 1
  }
else
  echo "check.sh: objdump not found; skipping the disassembly guard on Memsys.load_inner/store_inner"
fi

dune runtest

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

# The committed ANALYZE_asf.json is a checked golden too: Txstatic's
# verdicts over every stock workload, with the runtime cross-validation,
# must match it byte for byte. A change meant to move a verdict
# regenerates it (`asf_bench analyze` writes it) and says so in
# CHANGES.md.
_build/default/bin/asf_bench.exe analyze --json "$tmp/analyze.json" > /dev/null
cmp "$tmp/analyze.json" ANALYZE_asf.json

# Benchmark-harness smoke: the quick reproduction at --jobs 2, with the
# harness asserting that the parallel pass is bit-identical to the
# sequential one and that the emitted benchmark JSON validates. --force
# re-runs it even when dune has it cached: its CSVs are not a declared
# target, so the next build removes them and the diff below needs them.
dune build @bench-smoke --force

# The committed results/ is a checked golden: every CSV the quick
# reproduction above wrote must match it byte for byte. A change meant to
# move simulated output regenerates results/ (`bench/main.exe --quick
# --jobs 2` writes it) and says so in CHANGES.md.
diff -r _build/default/results-smoke results

# Scheduler-throughput smoke: quick bench over the single-thread-heavy
# experiments; prints seq cycles/sec + fusion ratio, asserts the
# seq vs --jobs 2 determinism contract and the minor-words allocation
# budget (see scripts/allocprof.sh for the per-experiment breakdown).
dune build @perf-smoke

# The build profile may change host time only. Build asf_bench under the
# dev profile too and diff a figure, a checked serve run, a checked
# 256-core run (eight sockets, five-word sharer sets, a deep scheduler
# queue), a TinySTM run and a one-core run (every elapse fused) against
# the default build, dropping the "[... host time]" line.
dune build --profile dev --build-dir _build_dev ./bin/asf_bench.exe
for args in "repro -e fig7 --quick --seed 7" \
  "serve --service kv-e -t 4 -n 800 --load 2.5 --queue-cap 8 --deadline-us 2 --seed 5 --check=lin" \
  "intset -s rb-tree -r 8192 -u 20 -t 256 --sockets 8 --txns 4 -m llb256 --check" \
  "intset -s rb-tree -u 20 -t 8 --txns 300 -m stm" \
  "intset -s hash-set -r 128000 -u 20 -t 1 --txns 20000 -m llb256"; do
  for build in _build _build_dev; do
    # shellcheck disable=SC2086
    "$build/default/bin/asf_bench.exe" $args > "$tmp/raw"
    grep -v 'host time\]$' "$tmp/raw" > "$tmp/$build.out"
  done
  cmp "$tmp/_build.out" "$tmp/_build_dev.out"
done

echo "check.sh: build, tests, asf_bench gates, benchmark smokes and profile diff OK"
