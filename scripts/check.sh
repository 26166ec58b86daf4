#!/usr/bin/env bash
# Fast correctness + perf-harness gate: configure, build, run the unit tests,
# then smoke the engine throughput benchmark for one short iteration so
# regressions in either the model or the perf harness fail loudly.
set -euo pipefail

cd "$(dirname "$0")/.."

cmake -B build -S . "$@"
cmake --build build -j"$(nproc)"
ctest --test-dir build --output-on-failure -j"$(nproc)"

if [ -x build/bench_engine ]; then
  # Plain-double seconds: the "0.01x" iteration-suffix form needs
  # google-benchmark >= 1.8, and the smoke must run on 1.7 too.
  (cd build && ./bench_engine --benchmark_min_time=0.05)
else
  echo "bench_engine not built (HM_BUILD_BENCH=OFF?) — skipping perf smoke"
fi

# Sweep-driver smoke: the Fig. 7 experiment on two workers exercises the
# scheduler, the registries and the renderer end to end.  The `run`
# subcommand is mandatory (hm_sweep errors without it), so this invocation
# and ci.yml's can no longer drift apart.
(cd build && ./hm_sweep run --filter fig7 --jobs 2 --no-cache --quiet)

# Sampled-engine smoke: the same driver path under interval sampling, so the
# descriptor compiler, the batch-bound stream and the functional
# fast-forward run end to end here and not only in ctest.
(cd build && ./hm_sweep run --filter fig8 --sample interval --scale 0.1 --jobs 2 \
  --no-cache --no-journal --quiet)

# Footprint guard: the 256-tile mesh points at CI scale on one worker must
# stay under 52 MB peak RSS (per-tile state is allocated on first touch;
# see docs/ARCHITECTURE.md, "Per-tile footprint").
(cd build && python3 ../scripts/peak_rss.py --max-mb 52 -- \
  ./hm_sweep run --filter scaling_mesh --scale 0.05 --jobs 1 \
  --no-cache --no-journal --quiet > /dev/null)

# Quarantine smoke: an injected engine fault fails exactly one point on its
# first and only attempt; the sweep finishes with exit 3 (partial results)
# and one `engine` row with attempts 1.  A fault kind the harness does not
# know is a usage error (exit 2), never a silently inert plan.
rc=0
(cd build && HM_FAULTS='sweep_worker:engine:point=1' ./hm_sweep run --filter fig7 \
  --jobs 2 --no-cache --no-journal --format csv > quarantine.csv 2>/dev/null) || rc=$?
[ "$rc" -eq 3 ] || { echo "quarantine smoke: expected exit 3, got $rc"; exit 1; }
rows=$(grep -c ',engine,1,' build/quarantine.csv || true)
[ "$rows" -eq 1 ] || { echo "quarantine smoke: expected one engine row, got $rows"; exit 1; }
rc=0
(cd build && ./hm_sweep run --filter fig7 --faults 'sweep_worker:transient' \
  --no-cache --no-journal --quiet 2>/dev/null) || rc=$?
[ "$rc" -eq 2 ] || { echo "quarantine smoke: expected usage error (2), got $rc"; exit 1; }

# Observability smoke: the same experiment with tracing + metrics on, then
# the trace validator and the metrics-name lint over the artifacts.
rm -rf build/obs_smoke
(cd build && ./hm_sweep run --filter fig7 --jobs 2 --no-cache --no-journal \
  --quiet --trace-dir obs_smoke/traces --metrics-out obs_smoke/metrics.prom)
python3 scripts/trace_summary.py build/obs_smoke/traces --quiet
python3 scripts/metrics_lint.py build/obs_smoke/metrics.prom

# Docs check: registry-vs-EXPERIMENTS.md consistency already ran as part of
# ctest (docs_test); here, sweep every relative markdown link in the
# top-level docs for dead targets, including ones docs_test doesn't cover.
python3 scripts/docs_check.py

echo "check.sh: all green"
