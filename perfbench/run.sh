#!/usr/bin/env bash
# Build the benchmark from source (release profile, build tree in
# .bench_build/, no shared dune cache) and run one workload:
#   bash perfbench/run.sh --workload W [--seed N] [--seconds S] [--trace 0|1]
set -euo pipefail
cd "$(dirname "$0")/.."
exec dune exec --root . --build-dir .bench_build --profile release --cache disabled \
  --display quiet ./perfbench/main.exe -- run "$@"
