#!/bin/sh
# Builds the benchmark from source and runs it with the given arguments.
# Run it from the root of a checkout: sh bench/perf/run.sh --workload NAME ...
# The checkout is the dune root and the shared dune cache stays off, so
# the build reads and writes only inside the checkout.
export DUNE_CACHE=disabled
exec dune exec --root . --display quiet -- ./bench/perf/perf.exe "$@"
