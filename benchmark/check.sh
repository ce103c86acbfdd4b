#!/usr/bin/env bash
# Build the benchmark, run its unit tests and the --quick smoke of all four
# workloads. Seconds-scale; a later change can wire it into CI.
# Run from anywhere; nothing outside benchmark/ is written.
set -euo pipefail
cd "$(dirname "$0")"

cargo build --release --offline
cargo test --release --offline
cargo run --release --offline --quiet -- run --quick --trace --out out/check
echo "benchmark check: ok"
