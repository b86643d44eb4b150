#!/usr/bin/env bash
# Builds the service benchmark and runs it on one CPU.
#
# Usage, from the repository root:
#   bash svcbench/run.sh --workload cold-mixed --seed 1 --seconds 15 --trace 0
#
# The benchmark keeps one query outstanding, so its client, the service's
# workers and the shard server take turns. Pinned to one CPU they hand off
# without cross-CPU wake-ups; unpinned on a 2-vCPU machine the same stream
# ran about 30% slower and its qps and latencies spread several times wider
# from run to run (see README.md). The last CPU is used because CPU 0
# usually takes more interrupts.
set -euo pipefail

cargo build --release --quiet --offline --manifest-path svcbench/Cargo.toml
bin="${CARGO_TARGET_DIR:-svcbench/target}/release/svcbench"
cpu=$(($(nproc) - 1))
if command -v taskset >/dev/null; then
    exec taskset -c "$cpu" "$bin" "$@"
fi
exec "$bin" "$@"
