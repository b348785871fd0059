#!/usr/bin/env bash
# Per-kernel SIMD microbench, one leg per backend the CPU has.
#
# Each row prints every leg's median time, the widest leg's speed-up over
# scalar and over the next narrower leg, whether every leg produced the
# scalar leg's bytes (the binary exits 1 if any did not) and the output
# digest. Run it on two builds and compare the digest column to check
# that a change kept every kernel's output bits. The CI container has a
# single CPU, so the timings it produces are noise-dominated; run this
# script on a quiet multi-core host for meaningful per-kernel speedups.
#
#   scripts/bench_kernels.sh                # human-readable table
#   scripts/bench_kernels.sh --json         # machine-readable
#   scripts/bench_kernels.sh --samples 15   # more samples per kernel
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release -p cbrain-bench --bin bench_kernels
exec ./target/release/bench_kernels "$@"
